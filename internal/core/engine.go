package core

import (
	"math"
	"math/rand"
	"slices"

	"pegasus/internal/graph"
	"pegasus/internal/par"
	"pegasus/internal/summary"
	"pegasus/internal/weights"
)

// engine is the mutable summarization state. Supernodes live in slots;
// merging B into A reuses A's slot and kills B's. The per-slot aggregates
// Π_A (sum of π over members) and Q_A (sum of π²) are the paper's
// "additional information" (online-appendix Eqs. 13–15) enabling O(deg)
// pairwise-error evaluation (Lemma 1).
type engine struct {
	g   *graph.Graph
	cfg Config
	rng *rand.Rand

	// pi is π scaled by 1/sqrt(Z), so products π'_u·π'_v equal W_uv directly
	// and Z disappears from every formula.
	pi []float64

	superOf  []uint32         // node -> slot
	members  [][]graph.NodeID // slot -> member nodes; nil when dead
	sumPi    []float64        // slot -> Π_A (scaled)
	sumPiSq  []float64        // slot -> Q_A (scaled)
	sedges   [][]uint32       // slot -> strictly ascending superedge neighbors (may contain the slot itself: self-loop)
	numSuper int              // |S|
	numP     int              // |P|
	logV     float64          // log2|V|

	// version identifies the engine state the slot memos were priced in. It
	// goes up on every committed merge (which changes |S| and with it every
	// Cost_A) and at the start of every group (which bounds the arenas).
	// logS2 and logS2Merged are 2·log2|S| and 2·log2(|S|−1) at that version:
	// the presence bits of a superedge now and after one more merge.
	version            uint64
	logS2, logS2Merged float64
	memo               []slotMemo // slot -> its masses and Cost_A at memo.ver

	// candidate-generation scratch reused across iterations (shingle.go):
	// per-depth node-shingle vectors tagged with the seed that filled them,
	// the packed (shingle key, slot payload) sort arrays with the radix
	// sorter's scratch, and the per-row / per-slot LSH buffers.
	shingleBuf  [][]uint64
	shingleSeed []uint64
	keyBuf      []uint64
	slotBuf     []uint32
	sorter      par.KeySorter
	rowBuf      [][]uint64
	bucketBuf   []uint64

	// scorer holds the batched-round state of mergeGroup: the sampled pairs
	// of the current round and the per-worker evaluation scratch.
	scorer roundScorer
}

// slotMemo is one slot's priced state: its directed masses, stored in
// first-touch order in the arena of the scoring worker that priced it
// (keys[off:off+n] and m[off:off+n]), and its Cost_A. It is valid while ver
// equals the engine version.
type slotMemo struct {
	ver    uint64
	cost   float64
	off, n uint32
	arena  uint32
}

// massArena is one scoring worker's memo storage: the masses of every slot
// it priced in the current version, back to back.
type massArena struct {
	keys []uint32
	m    []float64
}

// pairMass accumulates directed weighted edge mass from one supernode to
// every adjacent supernode: dm_AX = Σ_{u∈A} Σ_{v∈N_u ∩ X} π'_u·π'_v.
// For X ≠ A, dm_AX equals the unordered weighted edge mass m_AX; for X = A
// each intra edge is visited from both endpoints, so dm_AA = 2·m_AA, which
// is exactly the ordered intra edge mass.
//
// m and in are dense and slot-indexed (m[x] is 0 when x is untouched); keys
// lists the touched slots in first-touch order, which fixes the float
// summation order of every cost sum over them. edge is supernodeCost's dense
// superedge mark, sized on first use.
type pairMass struct {
	keys []uint32
	m    []float64
	in   []bool
	edge []bool
}

// reset clears the touched entries and grows the dense arrays to cover
// slots slot IDs; clearing only what was touched keeps an evaluation O(deg).
func (pm *pairMass) reset(slots int) {
	for _, k := range pm.keys {
		pm.m[k], pm.in[k] = 0, false
	}
	pm.keys = pm.keys[:0]
	if len(pm.m) < slots {
		pm.m = make([]float64, slots)
		pm.in = make([]bool, slots)
	}
}

// load fills pm with masses stored in first-touch order, leaving it exactly
// as accumulating them would: the same keys in the same order and the same
// float values.
func (pm *pairMass) load(keys []uint32, m []float64, slots int) {
	pm.reset(slots)
	for i, k := range keys {
		pm.in[k] = true
		pm.m[k] = m[i]
	}
	pm.keys = append(pm.keys, keys...)
}

func (pm *pairMass) add(x uint32, v float64) {
	if !pm.in[x] {
		pm.in[x] = true
		pm.keys = append(pm.keys, x)
	}
	pm.m[x] += v
}

// newEngine initializes the singleton summary of Alg. 1 line 1: every node
// its own supernode, every edge its own superedge.
func newEngine(g *graph.Graph, w *weights.Weights, cfg Config) *engine {
	n := g.NumNodes()
	e := &engine{
		g:        g,
		cfg:      cfg,
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		pi:       make([]float64, n),
		superOf:  make([]uint32, n),
		members:  make([][]graph.NodeID, n),
		sumPi:    make([]float64, n),
		sumPiSq:  make([]float64, n),
		sedges:   make([][]uint32, n),
		memo:     make([]slotMemo, n),
		numSuper: n,
		numP:     int(g.NumEdges()),
		logV:     math.Log2(math.Max(float64(n), 2)),
	}
	invSqrtZ := 1 / math.Sqrt(w.Z)
	// Each index writes only its own slots, so the singleton initialization
	// is range-shardable; the result is identical for any worker count.
	par.Range(cfg.Workers, n, func(lo, hi int) {
		for u := lo; u < hi; u++ {
			p := w.Pi[u] * invSqrtZ
			e.pi[u] = p
			e.superOf[u] = uint32(u)
			e.members[u] = []graph.NodeID{graph.NodeID(u)}
			e.sumPi[u] = p
			e.sumPiSq[u] = p * p
			// Adjacency lists are sorted and self-loop free, so each is
			// already a valid superedge list.
			e.sedges[u] = slices.Clone(g.Neighbors(graph.NodeID(u)))
		}
	})
	e.scorer.price = func(w, i int) { e.priceSlot(w, e.scorer.pending[i]) }
	e.scorer.score = func(w, i int) { e.observe(e.scorer.scratch[w], i, e.scorer.unique[i]) }
	e.newVersion()
	return e
}

// newVersion starts a new engine state: every slot memo becomes stale, the
// scoring workers' arenas are emptied, and the presence bits are re-derived
// from |S|. Slot memos are only ever read at the version they were priced
// in, so the arenas hold at most one group's masses.
func (e *engine) newVersion() {
	e.version++
	e.logS2 = 2 * math.Log2(math.Max(float64(e.numSuper), 2))
	e.logS2Merged = 2 * math.Log2(math.Max(float64(e.numSuper-1), 2))
	for _, s := range e.scorer.scratch {
		s.arena.keys, s.arena.m = s.arena.keys[:0], s.arena.m[:0]
	}
}

// sizeBits returns Size(G) per Eq. (3) for the current state.
func (e *engine) sizeBits() float64 {
	k := float64(e.numSuper)
	if k <= 1 {
		k = 2
	}
	return (2*float64(e.numP) + float64(len(e.superOf))) * math.Log2(k)
}

func (e *engine) hasSuperedge(a, b uint32) bool {
	_, ok := slices.BinarySearch(e.sedges[a], b)
	return ok
}

// addSuperedge inserts the superedge {a,b}, keeping both lists ascending.
// The caller guarantees it is absent.
func (e *engine) addSuperedge(a, b uint32) {
	e.sedges[a] = insertSorted(e.sedges[a], b)
	if a != b {
		e.sedges[b] = insertSorted(e.sedges[b], a)
	}
	e.numP++
}

// deleteSuperedge removes the present superedge {a,b} from both lists.
func (e *engine) deleteSuperedge(a, b uint32) {
	e.sedges[a] = deleteSorted(e.sedges[a], b)
	if a != b {
		e.sedges[b] = deleteSorted(e.sedges[b], a)
	}
	e.numP--
}

// removeIncidentSuperedges drops every superedge incident to slot a (Alg. 2
// line 8).
func (e *engine) removeIncidentSuperedges(a uint32) {
	for _, x := range e.sedges[a] {
		if x != a {
			e.sedges[x] = deleteSorted(e.sedges[x], a)
		}
	}
	e.numP -= len(e.sedges[a])
	e.sedges[a] = e.sedges[a][:0]
}

// insertSorted inserts x, which must be absent, into the ascending list s.
func insertSorted(s []uint32, x uint32) []uint32 {
	i, _ := slices.BinarySearch(s, x)
	return slices.Insert(s, i, x)
}

// deleteSorted removes x, which must be present, from the ascending list s.
func deleteSorted(s []uint32, x uint32) []uint32 {
	i, _ := slices.BinarySearch(s, x)
	return slices.Delete(s, i, i+1)
}

// accumulateMass fills pm with the directed masses of slot a.
func (e *engine) accumulateMass(a uint32, pm *pairMass) {
	pm.reset(len(e.members))
	for _, u := range e.members[a] {
		pu := e.pi[u]
		for _, v := range e.g.Neighbors(u) {
			pm.add(e.superOf[v], pu*e.pi[v])
		}
	}
}

// alive reports whether slot a currently denotes a supernode.
func (e *engine) alive(a uint32) bool { return e.members[a] != nil }

// aliveSlots lists all live supernode slots.
func (e *engine) aliveSlots() []uint32 {
	out := make([]uint32, 0, e.numSuper)
	for a := range e.members {
		if e.members[a] != nil {
			out = append(out, uint32(a))
		}
	}
	return out
}

// buildSummary freezes the engine state into an immutable Summary.
func (e *engine) buildSummary() *summary.Summary {
	b := summary.NewBuilder(e.superOf)
	for a, xs := range e.sedges {
		for _, x := range xs {
			if x >= uint32(a) {
				b.AddSuperedge(uint32(a), x, 1)
			}
		}
	}
	return b.Build()
}
