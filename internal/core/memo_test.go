package core

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"pegasus/internal/gen"
	"pegasus/internal/graph"
)

// evaluateMergeInto is the un-memoized reference of evaluateMerge: it
// accumulates and prices both slots from scratch for every pair, which is
// what the merge scorer did before slot memos. pmA/pmB are left holding the
// masses of a and b.
func (eng *engine) evaluateMergeInto(a, b uint32, pmA, pmB *pairMass) (rel, abs float64) {
	eng.accumulateMass(a, pmA)
	eng.accumulateMass(b, pmB)
	costA := eng.supernodeCost(a, pmA)
	costB := eng.supernodeCost(b, pmB)
	return eng.mergeGain(a, b, costA, costB, pmA, pmB)
}

// dedupeMap is the map-based reference of roundScorer.dedupe.
func dedupeMap(samples []pairSample) []pairSample {
	seen := make(map[uint64]bool, len(samples))
	var unique []pairSample
	for _, p := range samples {
		if !seen[p.key()] {
			seen[p.key()] = true
			unique = append(unique, p)
		}
	}
	return unique
}

// sameMass reports whether two mass scratches hold the same keys in the same
// order with bit-identical masses.
func sameMass(x, y *pairMass) bool {
	if !slices.Equal(x.keys, y.keys) {
		return false
	}
	for _, k := range x.keys {
		if math.Float64bits(x.m[k]) != math.Float64bits(y.m[k]) {
			return false
		}
	}
	return true
}

type namedEngine struct {
	name string
	e    *engine
}

// memoEngines builds the engines the memo tests run on: BA and SBM graphs,
// uniform and personalized weights, and LSH-seeded candidate groups.
func memoEngines(t *testing.T) []namedEngine {
	t.Helper()
	sbm, _ := graph.LargestComponent(gen.PlantedPartition(gen.SBMConfig{Nodes: 240, Communities: 4, AvgDegree: 12, MixingP: 0.08}, 22))
	graphs := []struct {
		name string
		g    *graph.Graph
	}{{"ba", gen.BarabasiAlbert(300, 3, 21)}, {"sbm", sbm}}
	cfgs := []struct {
		name string
		cfg  Config
	}{
		{"uniform", Config{Seed: 3, Workers: 4}},
		{"personalized", Config{Targets: []graph.NodeID{0, 1, 2}, Alpha: 1.5, Seed: 4, Workers: 4}},
		{"lsh", Config{Targets: []graph.NodeID{5, 6}, Alpha: 1.25, Seed: 5, Workers: 4, LSHBands: 4}},
	}
	var out []namedEngine
	for _, g := range graphs {
		for _, c := range cfgs {
			out = append(out, namedEngine{g.name + "/" + c.name, newTestEngine(t, g.g, c.cfg)})
		}
	}
	return out
}

// TestMemoEvaluationMatchesReference checks, at random states reached
// through commitMerge, that scoring a pair from the slot memos gives the
// reference evaluation bit for bit: the same rel and abs, and the same
// masses of both slots in the same order. A memo that outlives a merge (a
// missed version bump) prices a stale state and fails here.
func TestMemoEvaluationMatchesReference(t *testing.T) {
	for _, ne := range memoEngines(t) {
		name, e := ne.name, ne.e
		rng := rand.New(rand.NewSource(7))
		var gotA, gotB, wantA, wantB pairMass
		compared := 0
		for step := 0; step < 40; step++ {
			slots := e.aliveSlots()
			if len(slots) < 2 {
				break
			}
			pairs := make([]pairSample, 0, 64)
			for len(pairs) < cap(pairs) {
				a, b := slots[rng.Intn(len(slots))], slots[rng.Intn(len(slots))]
				if a != b {
					pairs = append(pairs, pairSample{a, b})
				}
			}
			e.priceSlots(pairs)
			for _, p := range pairs {
				rel, abs := e.evaluateMerge(p.a, p.b, &gotA, &gotB)
				wrel, wabs := e.evaluateMergeInto(p.a, p.b, &wantA, &wantB)
				if math.Float64bits(rel) != math.Float64bits(wrel) || math.Float64bits(abs) != math.Float64bits(wabs) {
					t.Fatalf("%s step %d pair %v: memo (%v, %v), reference (%v, %v)", name, step, p, rel, abs, wrel, wabs)
				}
				if !sameMass(&gotA, &wantA) || !sameMass(&gotB, &wantB) {
					t.Fatalf("%s step %d pair %v: memoized masses differ from the reference", name, step, p)
				}
				compared++
			}
			// Commit a merge among the priced slots, so the next step's
			// memos must notice the new state.
			p := pairs[rng.Intn(len(pairs))]
			commitMerge(e, p.a, p.b)
		}
		if compared == 0 {
			t.Fatalf("%s: no pair compared", name)
		}
	}
}

// TestMemoValidInMergeLoop runs the real merge loop (candidate groups,
// LSH-overlapping ones included, through mergeGroup) and after every group
// checks each memo still valid at the engine version against a slot priced
// from scratch: same masses in the same order, same Cost_A bits.
func TestMemoValidInMergeLoop(t *testing.T) {
	for _, ne := range memoEngines(t) {
		name, e := ne.name, ne.e
		var got, want pairMass
		checked := 0
		var rejected []float64
		for it := 1; it <= 3; it++ {
			for _, grp := range e.candidateGroups(context.Background(), it) {
				if grp = e.compactAlive(grp); len(grp) <= 1 {
					continue
				}
				e.mergeGroup(grp, 0.2, &rejected)
				for a := range e.memo {
					if e.memo[a].ver != e.version || !e.alive(uint32(a)) {
						continue
					}
					e.loadMass(uint32(a), &got)
					e.accumulateMass(uint32(a), &want)
					if !sameMass(&got, &want) {
						t.Fatalf("%s: memoized masses of slot %d are stale", name, a)
					}
					if c := e.supernodeCost(uint32(a), &want); math.Float64bits(c) != math.Float64bits(e.memo[a].cost) {
						t.Fatalf("%s: memoized Cost_A of slot %d = %v, want %v", name, a, e.memo[a].cost, c)
					}
					checked++
				}
			}
		}
		if checked == 0 {
			t.Fatalf("%s: no memo checked", name)
		}
	}
}

// TestDedupeMatchesMap pins the flat pair-key set against the map version:
// the same unique pairs in the same first-drawn order, across rounds of
// growing and shrinking size that reuse one table.
func TestDedupeMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var sc roundScorer
	for round := 0; round < 300; round++ {
		n := 1 + rng.Intn(400)
		slots := 2 + rng.Intn(40) // few slots: many re-drawn pairs
		if round%7 == 0 {
			slots = 1 << 20 // mostly distinct, large keys
		}
		samples := make([]pairSample, 0, n)
		for len(samples) < n {
			a, b := uint32(rng.Intn(slots)), uint32(rng.Intn(slots))
			if a != b {
				samples = append(samples, pairSample{a, b})
			}
		}
		got := slices.Clone(sc.dedupe(samples))
		if want := dedupeMap(samples); !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: dedupe = %v, want %v", round, got, want)
		}
	}
}

// TestMergeCounters checks the merge loop's work counters: they are the same
// at every worker count, the memo prices fewer slots than the scorer reads
// (two per scored pair), and their totals on the golden graphs are pinned.
func TestMergeCounters(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		cfg  Config
		want mergeCounts
	}{
		{"ba400-uniform", gen.BarabasiAlbert(400, 3, 1),
			Config{BudgetRatio: 0.4, Seed: 42},
			mergeCounts{sampled: 12445, scored: 11113, massEvals: 4946}},
		{"sbm240-personalized", sbm240(),
			Config{Targets: []graph.NodeID{0, 1, 2}, Alpha: 1.5, BudgetRatio: 0.35, Seed: 7},
			mergeCounts{sampled: 8456, scored: 7744, massEvals: 3044}},
	}
	for _, c := range cases {
		var ref []IterStats
		for _, workers := range []int{1, 2, 4} {
			cfg := c.cfg
			cfg.Workers = workers
			var stats []IterStats
			cfg.Trace = func(s IterStats) { stats = append(stats, s) }
			if _, err := Summarize(c.g, cfg); err != nil {
				t.Fatal(err)
			}
			if workers == 1 {
				ref = stats
				continue
			}
			if !reflect.DeepEqual(stats, ref) {
				t.Errorf("%s: workers=%d iteration stats differ from workers=1", c.name, workers)
			}
		}
		var total mergeCounts
		for _, s := range ref {
			total.sampled += s.Sampled
			total.scored += s.Scored
			total.massEvals += s.MassEvals
		}
		if total != c.want {
			t.Errorf("%s: totals %+v, want %+v", c.name, total, c.want)
		}
		if !(total.massEvals < total.scored && total.scored <= total.sampled) {
			t.Errorf("%s: want massEvals < scored <= sampled, got %+v", c.name, total)
		}
	}
}

// sbm240 is the largest component of the sbm240-personalized golden graph.
func sbm240() *graph.Graph {
	g, _ := graph.LargestComponent(gen.PlantedPartition(gen.SBMConfig{Nodes: 240, Communities: 4, AvgDegree: 12, MixingP: 0.08}, 1))
	return g
}
