package core

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"pegasus/internal/gen"
	"pegasus/internal/graph"
)

// cliqueGraph builds k disjoint m-cliques: members of one clique share an
// identical closed neighborhood (the clique itself), members of different
// cliques share nothing — planted similarity 1 within and 0 across.
func cliqueGraph(k, m int) *graph.Graph {
	b := graph.NewBuilder(k * m)
	for c := 0; c < k; c++ {
		base := graph.NodeID(c * m)
		for i := 0; i < m; i++ {
			for j := i + 1; j < m; j++ {
				b.AddEdge(base+graph.NodeID(i), base+graph.NodeID(j))
			}
		}
	}
	return b.Build()
}

func groupsEqual(a, b [][]uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

// TestSortGroupingMatchesLegacyMap is the tentpole equivalence property:
// for every graph shape, seed, worker count and iteration — on the
// singleton state and after merges have killed slots — the sort-based
// pipeline must emit byte for byte the groups of the retained map-based
// reference. K20 forces the failed-split path (all closed neighborhoods
// identical, so every hash yields one shingle until the depth cap chops);
// the small MaxGroupSize forces the chop path on the clique graph too.
func TestSortGroupingMatchesLegacyMap(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		cfg  Config
	}{
		{"ba300", gen.BarabasiAlbert(300, 3, 1), Config{}},
		{"cliques", cliqueGraph(40, 4), Config{MaxGroupSize: 8, MaxSplitDepth: 2}},
		{"k20", cliqueGraph(1, 20), Config{MaxGroupSize: 6, MaxSplitDepth: 3}},
	}
	for _, tc := range cases {
		for _, seed := range []int64{1, 9, 42} {
			for _, workers := range []int{1, 2, 8} {
				cfg := tc.cfg
				cfg.Seed = seed
				cfg.Workers = workers
				e := newTestEngine(t, tc.g, cfg)
				// Kill a few slots so members/dead-slot handling is exercised.
				commitMerge(e, 0, 1)
				commitMerge(e, 2, 3)
				for iter := 1; iter <= 3; iter++ {
					e.rng = rand.New(rand.NewSource(seed))
					want := e.candidateGroupsLegacyMap(context.Background(), iter)
					e.rng = rand.New(rand.NewSource(seed))
					got := e.candidateGroups(context.Background(), iter)
					if !groupsEqual(got, want) {
						t.Fatalf("%s seed %d workers %d iter %d: sort-based groups differ from legacy map (%d vs %d groups)",
							tc.name, seed, workers, iter, len(got), len(want))
					}
				}
			}
		}
	}
}

// TestSortGroupingWorkerCountInvariant: the production pipeline itself must
// be worker-count invariant (the legacy comparison above implies it, but
// this pins the property directly on the shipped path).
func TestSortGroupingWorkerCountInvariant(t *testing.T) {
	g := gen.BarabasiAlbert(400, 4, 2)
	var want [][]uint32
	for _, workers := range []int{1, 2, 8} {
		e := newTestEngine(t, g, Config{Seed: 11, Workers: workers})
		e.rng = rand.New(rand.NewSource(11))
		got := e.candidateGroups(context.Background(), 2)
		if workers == 1 {
			want = got
			continue
		}
		if !groupsEqual(got, want) {
			t.Fatalf("workers %d: groups differ from the Workers=1 output", workers)
		}
	}
}

// TestLSHGroupsPlantedCliques: clique members have Jaccard-1 closed
// neighborhoods, so every band buckets each clique together and the
// cross-band dedup collapses the repeats — LSH must emit exactly one group
// per clique and never mix cliques.
func TestLSHGroupsPlantedCliques(t *testing.T) {
	const k, m = 30, 4
	g := cliqueGraph(k, m)
	e := newTestEngine(t, g, Config{Seed: 3, LSHBands: 4, LSHRows: 2})
	groups := e.candidateGroups(context.Background(), 1)
	if len(groups) != k {
		t.Fatalf("got %d groups, want one per clique (%d)", len(groups), k)
	}
	for _, grp := range groups {
		if len(grp) != m {
			t.Fatalf("group of size %d, want whole clique (%d)", len(grp), m)
		}
		clique := grp[0] / m
		for i, a := range grp {
			if a/m != clique || a != grp[0]+uint32(i) {
				t.Fatalf("group %v mixes cliques or reorders slots", grp)
			}
		}
	}
}

// TestLSHBandCollisionMonotonicity checks the 1-(1-s^r)^b curve directionally
// on planted moderate similarity: gadgets of two nodes with Jaccard-1/5
// closed neighborhoods. More bands must catch (strictly) more pairs, more
// rows per band must catch fewer, across many independent iterations.
func TestLSHBandCollisionMonotonicity(t *testing.T) {
	const pairs, iters = 40, 25
	b := graph.NewBuilder(5 * pairs)
	for p := 0; p < pairs; p++ {
		u, v, anchor, x, y := graph.NodeID(5*p), graph.NodeID(5*p+1), graph.NodeID(5*p+2), graph.NodeID(5*p+3), graph.NodeID(5*p+4)
		b.AddEdge(u, anchor)
		b.AddEdge(v, anchor)
		b.AddEdge(u, x)
		b.AddEdge(v, y)
	}
	g := b.Build()

	collisions := func(bands, rows int) int {
		e := newTestEngine(t, g, Config{Seed: 13, LSHBands: bands, LSHRows: rows})
		total := 0
		for it := 1; it <= iters; it++ {
			for _, w := range e.lshSeedWork(context.Background(), it, uint64(it)*0x9e3779b97f4a7c15) {
				for p := 0; p < pairs; p++ {
					hasU, hasV := false, false
					for _, a := range w.slots {
						if a == uint32(5*p) {
							hasU = true
						}
						if a == uint32(5*p+1) {
							hasV = true
						}
					}
					if hasU && hasV {
						total++
					}
				}
			}
		}
		return total
	}

	manyBands := collisions(8, 2) // p = 1-(1-1/25)^8 ≈ 0.28 per pair-iteration
	oneBand := collisions(1, 2)   // p = 1/25 = 0.04
	moreRows := collisions(8, 4)  // p = 1-(1-1/625)^8 ≈ 0.013
	if manyBands <= oneBand {
		t.Errorf("more bands should catch more similar pairs: b=8 got %d, b=1 got %d", manyBands, oneBand)
	}
	if moreRows >= manyBands {
		t.Errorf("more rows should catch fewer pairs: r=4 got %d, r=2 got %d", moreRows, manyBands)
	}
	// Loose binomial sanity around the expected counts (n = 1000 trials).
	if manyBands < 180 || manyBands > 400 {
		t.Errorf("b=8 r=2 collisions = %d, want ≈ 280 (1-(1-s^2)^8 with s=1/5)", manyBands)
	}
	if oneBand > 100 {
		t.Errorf("b=1 r=2 collisions = %d, want ≈ 40", oneBand)
	}
}

// TestConfigRejectsBadCandidateKnobs pins the validation added alongside
// the pipeline: negative MaxSplitDepth (previously only zero was
// defaulted, so -1 silently degenerated every division into the random
// chop) and the LSH knob combinations.
func TestConfigRejectsBadCandidateKnobs(t *testing.T) {
	g := gen.BarabasiAlbert(50, 2, 1)
	bad := []Config{
		{MaxSplitDepth: -1},
		{MaxIter: -3},
		{LSHBands: -2},
		{LSHBands: 4, LSHRows: -1},
		{LSHRows: 2},                      // rows without bands
		{LSHBands: 4, RandomGroups: true}, // mutually exclusive
	}
	for i, cfg := range bad {
		if _, err := cfg.withDefaults(g); err == nil {
			t.Errorf("case %d (%+v): invalid config accepted", i, cfg)
		}
	}
	ok, err := Config{LSHBands: 4}.withDefaults(g)
	if err != nil {
		t.Fatalf("LSHBands alone rejected: %v", err)
	}
	if ok.LSHRows != defaultLSHRows {
		t.Errorf("LSHRows defaulted to %d, want %d", ok.LSHRows, defaultLSHRows)
	}
}

// TestContentKeyLSHNormalization: LSH-off keys must stay byte-identical to
// the pre-LSH format (pinned literally — existing .pgsum artifacts are
// addressed by these strings), and LSH-on keys must append the knobs with
// the rows default normalized.
func TestContentKeyLSHNormalization(t *testing.T) {
	off, ok := Config{Seed: 7}.ContentKey()
	if !ok {
		t.Fatal("default config not keyable")
	}
	const pinned = "pegasus1|a3ff4000000000000|b3fb999999999999a|i20|s7|g500|d10|c0|e0|rfalse"
	if off != pinned {
		t.Fatalf("LSH-off content key changed:\n got %s\nwant %s", off, pinned)
	}
	on, _ := Config{Seed: 7, LSHBands: 8}.ContentKey()
	if !strings.HasSuffix(on, "|lb8|lr2") || !strings.HasPrefix(on, pinned) {
		t.Fatalf("LSH-on key %q should be the off key plus |lb8|lr2", on)
	}
	explicit, _ := Config{Seed: 7, LSHBands: 8, LSHRows: 2}.ContentKey()
	if explicit != on {
		t.Fatalf("explicit default rows keyed differently: %q vs %q", explicit, on)
	}
	other, _ := Config{Seed: 7, LSHBands: 8, LSHRows: 3}.ContentKey()
	if other == on {
		t.Fatal("different LSHRows produced the same key")
	}
}

// TestLSHSummarizeRuns: end to end, LSH-banded candidate generation must
// drive a full summarization to a valid within-budget result (overlapping
// groups compact dead slots away before merging).
func TestLSHSummarizeRuns(t *testing.T) {
	g := gen.PlantedPartition(gen.SBMConfig{Nodes: 400, Communities: 5, AvgDegree: 10, MixingP: 0.05}, 9)
	res, err := Summarize(g, Config{Seed: 9, BudgetRatio: 0.4, LSHBands: 6, LSHRows: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !res.BudgetMet {
		t.Errorf("LSH build missed the budget (size ratio constraint)")
	}
	if res.Summary.NumSupernodes() >= g.NumNodes() {
		t.Errorf("LSH build performed no merges: %d supernodes of %d nodes",
			res.Summary.NumSupernodes(), g.NumNodes())
	}
}
