package core

import (
	"math"

	"pegasus/internal/par"
)

// Parallel candidate-pair scoring. mergeGroup batches each round: it first
// draws the round's samples from the engine RNG (sequentially, preserving the
// exact stream of the legacy loop), dedupes re-drawn pairs, and then scores
// the unique pairs — concurrently when the round is large enough. Scoring is
// read-only on the engine; the merge commit stays on the main goroutine. The
// argmax is selected by (score, first-drawn index), which reproduces the
// legacy "strictly greater wins" scan for every worker count, so summaries
// are bit-identical at Workers=1 and Workers=N (see DESIGN.md).
//
// A round prices each slot at most once per engine version: it first fills
// the memo of every slot of the round that has none valid (its masses and
// Cost_A), then scores each pair from the two memos. Only the merged
// supernode's cost is per-pair work.

// minParallelPairs gates the parallel scoring path: below this many unique
// candidate pairs (or slots to price) the goroutine spawn/join overhead
// exceeds the O(deg) evaluation work.
const minParallelPairs = 16

// pairSample is one sampled ordered candidate pair (merge b into a).
type pairSample struct{ a, b uint32 }

func (p pairSample) key() uint64 { return uint64(p.a)<<32 | uint64(p.b) }

// evalScratch is one worker's private scoring state: mass scratch for the
// pair under evaluation plus the retained masses of the worker-local best
// pair, so the winning evaluation never has to be repeated by
// performMergeWith, and the worker's slot pricing scratch and memo arena.
// The zero value is ready: pairMass sizes itself on first use.
type evalScratch struct {
	curA, curB   pairMass // masses of the pair being evaluated
	bestA, bestB pairMass // masses of the worker-local best pair
	bestScore    float64
	bestIdx      int // index into the round's unique pairs; -1 = none accepted
	best         pairSample

	price pairMass  // masses of the slot being priced
	arena massArena // masses of the slots this worker priced in this version
}

func (s *evalScratch) reset() {
	s.bestScore = math.Inf(-1)
	s.bestIdx = -1
}

// mergeCounts are the merge loop's work counters: pairs drawn, distinct pairs
// scored, and slot mass accumulations. They depend only on the RNG stream
// and the engine states, never on the worker count.
type mergeCounts struct {
	sampled, scored, massEvals int
}

// roundScorer owns the reusable buffers of the batched merge rounds.
type roundScorer struct {
	samples []pairSample
	unique  []pairSample
	seen    []uint64 // open-addressing pair-key set; 0 marks an empty cell
	pending []uint32 // the round's slots without a valid memo
	scratch []*evalScratch
	counts  mergeCounts

	// price and score are the par.ForEach bodies of a round's two phases,
	// made once per engine: a closure made per round escapes to the heap,
	// one allocation per round.
	price, score func(w, i int)
}

// dedupe keeps the first occurrence of every ordered pair, in draw order.
// Duplicate samples would re-score identical masses to identical values and
// can never displace the earlier occurrence under the legacy strict-greater
// argmax, so dropping them changes neither the selected pair nor the RNG
// stream (which was consumed during sampling). The key set is a linear-probe
// table of at least twice the round's size; a sampled pair never has a == b,
// so the key 0 never occurs and marks an empty cell.
func (sc *roundScorer) dedupe(samples []pairSample) []pairSample {
	bits := 1
	for 1<<bits < 2*len(samples) {
		bits++
	}
	if len(sc.seen) < 1<<bits {
		sc.seen = make([]uint64, 1<<bits)
	}
	table := sc.seen[:1<<bits]
	mask := uint64(len(table) - 1)
	unique := sc.unique[:0]
	for _, p := range samples {
		k := p.key()
		i := (k * 0x9e3779b97f4a7c15) >> (64 - bits)
		for table[i] != 0 && table[i] != k {
			i = (i + 1) & mask
		}
		if table[i] == 0 {
			table[i] = k
			unique = append(unique, p)
		}
	}
	clear(table)
	sc.unique = unique
	return unique
}

func (sc *roundScorer) scratchFor(k int) *evalScratch {
	for len(sc.scratch) <= k {
		sc.scratch = append(sc.scratch, &evalScratch{})
	}
	return sc.scratch[k]
}

// roundWorkers is the worker count for n independent tasks of a round.
func (e *engine) roundWorkers(n int) int {
	if n < minParallelPairs {
		return 1
	}
	return min(e.cfg.Workers, n)
}

// priceSlots fills the memo of every slot of pairs that has none valid at
// the current version. The pending slots are collected on the caller
// (claiming each memo entry, so a slot is priced once) and then priced
// concurrently, each into the arena of the worker that prices it.
func (e *engine) priceSlots(pairs []pairSample) {
	pending := e.scorer.pending[:0]
	for _, p := range pairs {
		for _, a := range [2]uint32{p.a, p.b} {
			if e.memo[a].ver != e.version {
				e.memo[a].ver = e.version
				pending = append(pending, a)
			}
		}
	}
	e.scorer.pending = pending
	e.scorer.counts.massEvals += len(pending)
	workers := e.roundWorkers(len(pending))
	for k := 0; k < workers; k++ {
		e.scorer.scratchFor(k)
	}
	par.ForEach(workers, len(pending), e.scorer.price)
}

// priceSlot accumulates the masses of slot a, prices Cost_A (Eq. 9) and
// records both in a's memo, with the masses appended to worker w's arena.
func (e *engine) priceSlot(w int, a uint32) {
	s := e.scorer.scratch[w]
	e.accumulateMass(a, &s.price)
	off := len(s.arena.keys)
	for _, x := range s.price.keys {
		s.arena.keys = append(s.arena.keys, x)
		s.arena.m = append(s.arena.m, s.price.m[x])
	}
	e.memo[a] = slotMemo{
		ver:   e.version,
		cost:  e.supernodeCost(a, &s.price),
		off:   uint32(off),
		n:     uint32(len(s.price.keys)),
		arena: uint32(w),
	}
}

// loadMass fills pm with the memoized masses of slot a.
func (e *engine) loadMass(a uint32, pm *pairMass) {
	m := e.memo[a]
	ar := &e.scorer.scratch[m.arena].arena
	lo, hi := m.off, m.off+m.n
	pm.load(ar.keys[lo:hi], ar.m[lo:hi], len(e.members))
}

// evaluateMerge computes the cost reduction of merging slots a and b from
// their memos, which must be valid at the current version. pmA/pmB are left
// holding the masses of a and b for reuse by performMergeWith.
func (e *engine) evaluateMerge(a, b uint32, pmA, pmB *pairMass) (rel, abs float64) {
	e.loadMass(a, pmA)
	e.loadMass(b, pmB)
	return e.mergeGain(a, b, e.memo[a].cost, e.memo[b].cost, pmA, pmB)
}

// observe folds the evaluation of pair p (at first-drawn index idx) into the
// worker-local best. Ties on score keep the lowest index, matching the
// first-wins semantics of the legacy sequential scan regardless of the order
// in which a worker happens to process its share of the round.
func (e *engine) observe(s *evalScratch, idx int, p pairSample) {
	rel, abs := e.evaluateMerge(p.a, p.b, &s.curA, &s.curB)
	score := rel
	if e.cfg.CostMode == AbsoluteCost {
		score = abs
	}
	if score > s.bestScore || (score == s.bestScore && s.bestIdx >= 0 && idx < s.bestIdx) {
		s.bestScore, s.bestIdx, s.best = score, idx, p
		// Swap, don't copy: the winner's masses stay live in bestA/bestB and
		// the displaced buffers become the next evaluation's scratch.
		s.curA, s.bestA = s.bestA, s.curA
		s.curB, s.bestB = s.bestB, s.curB
	}
}

// scoreRound prices the slots of the round's unique pairs (as left in
// e.scorer.unique by dedupe), evaluates the pairs and returns the scratch
// holding the argmax pair and its masses, or nil when no pair was accepted
// (all scores -Inf/NaN — the legacy "found == false" case). The result is
// identical for every worker count: with workers=1 (or a round below the
// parallel gate) par.ForEach runs the evaluations inline in sample order,
// reproducing the legacy sequential scan exactly.
func (e *engine) scoreRound() *evalScratch {
	pairs := e.scorer.unique
	n := len(pairs)
	if n == 0 {
		return nil
	}
	e.priceSlots(pairs)
	workers := e.roundWorkers(n)
	for k := 0; k < workers; k++ {
		e.scorer.scratchFor(k).reset()
	}
	par.ForEach(workers, n, e.scorer.score)

	var win *evalScratch
	for k := 0; k < workers; k++ {
		s := e.scorer.scratch[k]
		if s.bestIdx < 0 {
			continue
		}
		if win == nil || s.bestScore > win.bestScore ||
			(s.bestScore == win.bestScore && s.bestIdx < win.bestIdx) {
			win = s
		}
	}
	return win
}
