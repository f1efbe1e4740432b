package core

import "math"

// Cost machinery (§III-B). All reconstruction-error quantities are kept in
// the ordered convention of Eq. (1): each erroneous unordered pair counts
// its weight twice, so that Eq. (8) decomposes Cost(G) exactly and
// log2|V|·RE is exactly the error-correction bit count of Footnote 4.

// pairTotals returns the total ordered weighted pair count t and ordered
// weighted edge mass e for the (possibly hypothetical) supernode pair whose
// aggregates are given. For a cross pair (A,B): t = 2·Π_A·Π_B, e = 2·m_AB.
// For a self pair (A,A): t = Π_A²−Q_A, e = dm_AA (already ordered).
func crossTotals(piA, piB, dmAB float64) (t, e float64) {
	return 2 * piA * piB, 2 * dmAB
}

func selfTotals(piA, qA, dmAA float64) (t, e float64) {
	return piA*piA - qA, dmAA
}

// totals returns the ordered totals of the pair (a, x) under the current
// aggregates, given the directed mass dm from a to x.
func (eng *engine) totals(a, x uint32, dm float64) (t, e float64) {
	if x == a {
		return selfTotals(eng.sumPi[a], eng.sumPiSq[a], dm)
	}
	return crossTotals(eng.sumPi[a], eng.sumPi[x], dm)
}

// pairCost returns Cost_AB (Eq. 6) in bits for a pair with ordered totals
// (t, e), given whether the superedge is present. log2|S| bits are charged
// per superedge endpoint; logS2 is 2·log2(|S| used for evaluation).
func (eng *engine) pairCost(t, e float64, present bool, logS2 float64) float64 {
	if present {
		miss := t - e
		if miss < 0 {
			miss = 0 // guard float cancellation
		}
		bits := logS2 + eng.logV*miss
		if eng.cfg.Encoding == BestOfTwo {
			if alt := logS2 + entropyBits(t, e); alt < bits {
				bits = alt
			}
		}
		return bits
	}
	return eng.logV * e
}

// bestPairCost returns min over presence choices — used when (re)deciding
// superedges for a merged supernode (Alg. 2 line 9) — along with the choice.
func (eng *engine) bestPairCost(t, e float64, logS2 float64) (float64, bool) {
	with := eng.pairCost(t, e, true, logS2)
	without := eng.pairCost(t, e, false, logS2)
	if with < without {
		return with, true
	}
	return without, false
}

// entropyBits is the binomial-entropy encoding of a pair block: with n = t/2
// unordered pairs of which k = e/2 are edges, encoding the exact block
// content costs n·H2(k/n) bits. Only meaningful under uniform weights
// (SSumM); under personalized weights t and e are weighted masses and the
// formula degrades gracefully to an approximation.
func entropyBits(t, e float64) float64 {
	n := t / 2
	k := e / 2
	if n <= 0 || k <= 0 || k >= n {
		return 0
	}
	p := k / n
	h := -p*math.Log2(p) - (1-p)*math.Log2(1-p)
	return n * h
}

// supernodeCost computes Cost_A (Eq. 9) for slot a under the current
// superedge set, given a's masses in pm. Superedges to supernodes with zero
// mass are also charged (presence bits only), in ascending slot order after
// the massive pairs, so cost sums are bit-for-bit deterministic. Presence is
// read from a dense mark of sedges[a] in pm.edge, set and cleared here.
func (eng *engine) supernodeCost(a uint32, pm *pairMass) float64 {
	if len(pm.edge) < len(eng.members) {
		pm.edge = make([]bool, len(eng.members))
	}
	for _, x := range eng.sedges[a] {
		pm.edge[x] = true
	}
	total := 0.0
	for _, x := range pm.keys {
		t, e := eng.totals(a, x, pm.m[x])
		total += eng.pairCost(t, e, pm.edge[x], eng.logS2)
	}
	for _, x := range eng.sedges[a] {
		pm.edge[x] = false
		if !pm.in[x] {
			t, e := eng.totals(a, x, 0)
			total += eng.pairCost(t, e, true, eng.logS2)
		}
	}
	return total
}

// mergeGain computes the cost reduction of merging slots a and b, Eq. (10)
// (absolute) and Eq. (11) (relative), given Cost_A and Cost_B and the masses
// of a and b in pmA and pmB. It only reads the engine state, so distinct
// scratch pairs may evaluate distinct candidate pairs concurrently.
func (eng *engine) mergeGain(a, b uint32, costA, costB float64, pmA, pmB *pairMass) (rel, abs float64) {
	tAB, eAB := crossTotals(eng.sumPi[a], eng.sumPi[b], pmA.m[b])
	costAB := eng.pairCost(tAB, eAB, eng.hasSuperedge(a, b), eng.logS2)

	before := costA + costB - costAB
	costC := eng.mergedCost(a, b, pmA, pmB)
	abs = before - costC
	if before <= 1e-12 {
		// Two cost-free supernodes (e.g. isolated): merging is neutral.
		return 0, abs
	}
	return abs / before, abs
}

// mergedCost computes Cost_{A∪B}(merge(A,B;G)) (the last term of Eq. 10):
// the cost of the hypothetical merged supernode with superedges re-chosen
// optimally (Alg. 2 line 9), evaluated in the post-merge summary where
// |S| is one smaller. Requires pmA/pmB to hold the masses of a and b.
func (eng *engine) mergedCost(a, b uint32, pmA, pmB *pairMass) float64 {
	piC := eng.sumPi[a] + eng.sumPi[b]
	qC := eng.sumPiSq[a] + eng.sumPiSq[b]
	total := 0.0
	eng.mergedPairs(a, b, pmA, pmB, piC, qC, eng.logS2Merged, func(_ uint32, c float64, _ bool) { total += c })
	return total
}

// mergedPairs visits every pair incident to the merged supernode C = A∪B
// (aggregates piC, qC; presence bits logS2) with its best cost and presence
// choice: the cross pairs to every adjacent X ∉ {a,b} in first-touch order of
// pmA then pmB, then C's self pair with ordered intra mass
// dm_AA + dm_BB + 2·m_AB. mergedCost and performMergeWith share this walk,
// so the committed superedges are exactly the ones the evaluation priced.
func (eng *engine) mergedPairs(a, b uint32, pmA, pmB *pairMass, piC, qC, logS2 float64, visit func(x uint32, cost float64, present bool)) {
	for _, x := range pmA.keys {
		if x != a && x != b {
			t, e := crossTotals(piC, eng.sumPi[x], pmA.m[x]+pmB.m[x])
			c, present := eng.bestPairCost(t, e, logS2)
			visit(x, c, present)
		}
	}
	for _, x := range pmB.keys {
		if x != a && x != b && !pmA.in[x] {
			t, e := crossTotals(piC, eng.sumPi[x], pmB.m[x])
			c, present := eng.bestPairCost(t, e, logS2)
			visit(x, c, present)
		}
	}
	t, e := selfTotals(piC, qC, pmA.m[a]+pmB.m[b]+2*pmA.m[b])
	c, present := eng.bestPairCost(t, e, logS2)
	visit(a, c, present)
}

// performMergeWith merges slot b into slot a (Alg. 2 lines 6–9): removes
// stale superedges, unions members and aggregates, and re-adds superedges
// incident to the merged supernode exactly when presence lowers the pair
// cost. pmA/pmB must hold the masses of a and b, as left by the argmax
// evaluation's scratch, so the winning evaluation is not repeated here. The
// merge starts a new engine version, which invalidates every slot memo.
func (eng *engine) performMergeWith(a, b uint32, pmA, pmB *pairMass) {
	eng.removeIncidentSuperedges(a)
	eng.removeIncidentSuperedges(b)

	// Union b into a.
	for _, u := range eng.members[b] {
		eng.superOf[u] = a
	}
	eng.members[a] = append(eng.members[a], eng.members[b]...)
	eng.members[b] = nil
	eng.sumPi[a] += eng.sumPi[b]
	eng.sumPiSq[a] += eng.sumPiSq[b]
	eng.sumPi[b], eng.sumPiSq[b] = 0, 0
	eng.numSuper--
	eng.newVersion()

	eng.mergedPairs(a, b, pmA, pmB, eng.sumPi[a], eng.sumPiSq[a], eng.logS2, func(x uint32, _ float64, present bool) {
		if present {
			eng.addSuperedge(a, x)
		}
	})
}
