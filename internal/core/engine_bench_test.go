package core

import (
	"context"
	"fmt"
	"testing"

	"pegasus/internal/datasets"
	"pegasus/internal/gen"
	"pegasus/internal/graph"
	"pegasus/internal/metrics"
	"pegasus/internal/weights"
)

// Micro-benchmarks for the engine's hot paths; useful when tuning the merge
// loop, which dominates summarization time.

func benchEngine(b *testing.B, n, m int) *engine {
	b.Helper()
	g := gen.BarabasiAlbert(n, m, 1)
	cfg, err := Config{BudgetRatio: 0.5, Seed: 1}.withDefaults(g)
	if err != nil {
		b.Fatal(err)
	}
	w, err := weights.New(g, []uint32{0, 1, 2}, 1.25)
	if err != nil {
		b.Fatal(err)
	}
	return newEngine(g, w, cfg)
}

// BenchmarkEvaluateMerge measures one un-memoized candidate-pair evaluation
// (Lemma 1: O(deg(A)+deg(B))) through the reference evaluateMergeInto: both
// slots accumulated and priced from scratch, as the merge scorer does once
// per slot and engine version.
func BenchmarkEvaluateMerge(b *testing.B) {
	e := benchEngine(b, 5000, 4)
	var pmA, pmB pairMass
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := uint32(i % 5000)
		c := uint32((i*7 + 1) % 5000)
		if a == c {
			c = (c + 1) % 5000
		}
		e.evaluateMergeInto(a, c, &pmA, &pmB)
	}
}

// BenchmarkCandidateGroups measures one full shingle-grouping pass (O(|E|)).
func BenchmarkCandidateGroups(b *testing.B) {
	e := benchEngine(b, 5000, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.candidateGroups(context.Background(), i+1)
	}
}

// BenchmarkSummarizeWorkers measures a full summarization at different
// engine parallelism levels; every level produces the same summary, so the
// deltas are pure pipeline overhead/speedup.
func BenchmarkSummarizeWorkers(b *testing.B) {
	g := gen.BarabasiAlbert(3000, 4, 1)
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Summarize(g, Config{BudgetRatio: 0.4, Seed: 7, Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPerformMerge measures merge application including superedge
// re-selection.
func BenchmarkPerformMerge(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		e := benchEngine(b, 1000, 4)
		slots := e.aliveSlots()
		b.StartTimer()
		for j := 0; j+1 < len(slots) && j < 200; j += 2 {
			commitMerge(e, slots[j], slots[j+1])
		}
	}
}

// BenchmarkLSHPareto sets build time against quality for the default
// shingle grouping and LSH seeding with b bands of r=2 rows: ns/op is one
// personalized build (budget ratio 0.5, 100 targets, α 1.25) and perr the
// personalized error (Eq. 1) of the summary it produced. The graphs are the
// S5 BA stand-in at 10^4 nodes and the DBLP SBM stand-in at scale 3.
//
//	go test ./internal/core -run '^$' -bench LSHPareto -benchtime 5x
func BenchmarkLSHPareto(b *testing.B) {
	for _, ds := range []struct {
		short string
		scale float64
	}{{"S5", 0.1}, {"DB", 3}} {
		d, err := datasets.ByShort(ds.short)
		if err != nil {
			b.Fatal(err)
		}
		g := d.Load(ds.scale)
		targets := graph.SampleNodes(g, 100, 1)
		w, err := weights.New(g, targets, 1.25)
		if err != nil {
			b.Fatal(err)
		}
		for _, bands := range []int{0, 4, 8, 16} {
			name := "default"
			if bands > 0 {
				name = fmt.Sprintf("lsh=%dx2", bands)
			}
			b.Run(ds.short+"/"+name, func(b *testing.B) {
				cfg := Config{Targets: targets, BudgetRatio: 0.5, Seed: 1, LSHBands: bands}
				var res *Result
				for i := 0; i < b.N; i++ {
					if res, err = Summarize(g, cfg); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(metrics.PersonalizedError(g, res.Summary, w), "perr")
			})
		}
	}
}
