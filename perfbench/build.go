package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"

	"pegasus"
)

// The build workload: the S5 scale-tier graph of the repository's dataset
// registry at scale 0.1 (a heavy-tailed BA graph with the registry's
// generator seed) arrives as a gzip SNAP edge list, is ingested, summarized
// with personalization to a target set and encoded as an artifact. Merge
// dominates the build here, and nothing is served. The job (graph, target
// sets drawn with scheduleSeed, engine seed) is the same for every --seed,
// which draws the nodes the query sweep asks: query cost on a summary
// differs by up to a third between summaries built from different targets
// or engine seeds, which would swamp the latency metrics' run-to-run
// spread.
const (
	buildNodes     = 10_000
	buildDegree    = 8
	buildGraphSeed = 501
	buildTargets   = 100
	buildAlpha     = 1.25
	buildBudget    = 0.5
	buildSeed      = 1
	// sweepChunk is the number of RWR answers the query sweep times after
	// each build: the sweep is spread over the whole run, like the builds,
	// so its median does not hang on the host's speed during a few seconds.
	sweepChunk = 24
	// ingestReps ingests the input this many times in set-up; setup_s is
	// the median.
	ingestReps = 15
	// minBuilds is the least number of builds of each target set a run
	// makes, whatever --seconds says: the same-bytes check needs two.
	minBuilds = 2
	// movedTargets is how many targets a rebuild replaces.
	movedTargets = buildTargets / 10
	// smapeSample is the number of target nodes rwr_smape averages over.
	smapeSample = 10
	// sweepIters is the iteration budget of the build's query sweep. RWR
	// convergence on a summary takes ~60 or ~210 iterations depending on
	// the seed the summary was built with, so the sweep runs a fixed
	// budget: its latency measures the summary's per-query cost, steady
	// across seeds (queries.iterations reports the converged count).
	sweepIters = 50
)

// sweepConfig runs exactly sweepIters iterations: the tolerance is out of
// reach.
var sweepConfig = pegasus.RWRConfig{MaxIter: sweepIters, Eps: 1e-300}

// buildJob holds the build workload's inputs.
type buildJob struct {
	g   *pegasus.Graph
	cfg pegasus.Config
}

// buildOnce runs one measured build: summarize, then encode the artifact.
// tr, when non-nil, records the engine's spans and stats its counts.
func (b *buildJob) buildOnce(ctx context.Context, targets []pegasus.NodeID, tr *pegasus.Trace, stats *[]pegasus.IterStats) (*pegasus.Result, []byte, time.Duration, error) {
	cfg := b.cfg
	cfg.Targets = targets
	if tr != nil {
		ctx = pegasus.ContextWithTrace(ctx, tr)
		cfg.Trace = func(s pegasus.IterStats) { *stats = append(*stats, s) }
	}
	t0 := time.Now()
	res, err := pegasus.SummarizeCtx(ctx, b.g, cfg)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("summarize: %w", err)
	}
	var buf bytes.Buffer
	if err := pegasus.EncodeArtifact(&buf, pegasus.Artifact{Summary: res.Summary}); err != nil {
		return nil, nil, 0, fmt.Errorf("encode: %w", err)
	}
	return res, buf.Bytes(), time.Since(t0), nil
}

// series is the builds of one target set.
type series struct {
	targets []pegasus.NodeID
	times   []float64 // seconds, net of steal
	raw     []float64 // seconds, as measured
	stolen  []float64
	first   []byte
	res     *pegasus.Result
	over    int // builds over budget
	differ  int // builds whose bytes differ from the first
	traces  []*pegasus.Trace
	iters   []pegasus.IterStats
}

func (s *series) add(res *pegasus.Result, art []byte, d time.Duration, stolen float64) {
	s.times = append(s.times, d.Seconds()*(1-stolen))
	s.raw = append(s.raw, d.Seconds())
	s.stolen = append(s.stolen, stolen)
	if !res.BudgetMet {
		s.over++
	}
	if s.first == nil {
		s.first, s.res = art, res
	} else if !bytes.Equal(art, s.first) {
		s.differ++
	}
}

func runBuild(ctx context.Context, r *run) error {
	rng := rand.New(rand.NewSource(r.seed))
	src := pegasus.GenerateBA(buildNodes, buildDegree, buildGraphSeed)
	data, plain, err := snapGzip(src)
	if err != nil {
		return err
	}
	want := pegasus.GraphFingerprint(src)

	// Set-up: ingest, warmSetups times untimed, then ingestReps times timed.
	var g *pegasus.Graph
	var ingestS []float64
	var t0 cpuTicks
	for i := 0; i < warmSetups+ingestReps; i++ {
		if i == warmSetups {
			t0 = readTicks()
		}
		runtime.GC() // each ingest starts from the same heap
		gi, d, err := ingest(r, data, want)
		r.count(1, 0)
		if err != nil {
			return err
		}
		g = gi
		if i >= warmSetups {
			ingestS = append(ingestS, d.Seconds())
		}
	}
	r.check("ingest_fingerprint", pegasus.GraphFingerprint(g) == want, "ingested graph equals the source (%d nodes, %d edges)", g.NumNodes(), g.NumEdges())
	r.setTime("setup_s", median(ingestS), stolenShare(t0, readTicks()), "s")

	b := &buildJob{g: g, cfg: pegasus.Config{Alpha: buildAlpha, BudgetRatio: buildBudget, Seed: buildSeed}}
	perm := rand.New(rand.NewSource(scheduleSeed)).Perm(g.NumNodes())
	targets := make([]pegasus.NodeID, buildTargets)
	for i := range targets {
		targets[i] = pegasus.NodeID(perm[i])
	}
	moved := append([]pegasus.NodeID(nil), targets...)
	for i := 0; i < movedTargets; i++ {
		moved[i] = pegasus.NodeID(perm[buildTargets+i])
	}

	// Measured loop. Untraced runs alternate the target set and the set
	// with a tenth of its targets moved (build_s and rebuild_s); traced runs
	// alternate untraced and traced builds of the first set, so the two
	// medians give the tracing overhead. After every build, sweepChunk
	// seeded nodes are answered on the first build's summary (the query
	// sweep behind query_p50_ms and slo_qps).
	main, second := &series{targets: targets}, &series{targets: moved}
	if r.traced {
		second.targets = targets
	}
	var sw sweep
	mem := startMem()
	deadline := time.Now().Add(r.seconds)
	builds := 0
	for i := 0; i < 2*minBuilds || time.Now().Before(deadline); i++ {
		s := main
		var tr *pegasus.Trace
		var stats []pegasus.IterStats
		if i%2 == 1 {
			s = second
			if r.traced {
				tr = pegasus.NewTrace()
			}
		}
		t0 := readTicks()
		res, art, d, err := b.buildOnce(ctx, s.targets, tr, &stats)
		r.count(1, 0)
		if err != nil {
			return err
		}
		s.add(res, art, d, stolenShare(t0, readTicks()))
		if tr != nil {
			s.traces = append(s.traces, tr)
			s.iters = stats
		}
		builds++
		if err := sw.run(main.res.Summary, sampleNodes(rng, g.NumNodes(), sweepChunk)); err != nil {
			return err
		}
		r.count(sweepChunk, 0)
	}
	allocMB, pauseMs := mem.end()
	for _, s := range []*series{main, second} {
		r.check("budget_met", s.over == 0, "%d of %d builds over budget", s.over, len(s.times))
		r.check("same_bytes", s.differ == 0, "%d of %d builds differ from the first %d-byte artifact", s.differ, len(s.times), len(s.first))
	}
	r.setE2E("build_s", median(main.times), "s")
	r.setE2E("rebuild_s", median(second.times), "s")
	r.note("build_s is the median of %d builds (summarize + encode), each net of steal; rebuild_s of %d builds with %d of the %d targets moved",
		len(main.times), len(second.times), movedTargets, buildTargets)
	r.note("build_s measured median %.4f s, stolen shares %.3f; rebuild_s measured median %.4f s",
		median(main.raw), main.stolen, median(second.raw))

	// Round trip: decode, re-encode, compare bytes.
	first := main.first
	dec, err := pegasus.DecodeArtifact(first)
	if err != nil {
		return fmt.Errorf("decode: %w", err)
	}
	var again bytes.Buffer
	if err := pegasus.EncodeArtifact(&again, dec); err != nil {
		return fmt.Errorf("re-encode: %w", err)
	}
	r.check("artifact_roundtrip", bytes.Equal(again.Bytes(), first), "decode then re-encode gives the same %d bytes", len(first))

	// Quality, and the summary's query path: the sweep answered seeded
	// nodes with RWR (sweepConfig) on a fresh session each, as the serving
	// layer answers a request, without HTTP. query_p50_ms and the tail are
	// their latencies; slo_qps is the rate one worker sustains at the median
	// answer time, counting only the share of answers within the latency
	// limit (the sweep's own wall time would let a few slow answers swing
	// it); rwr_smape is the Fig. 7 error of converged answers on targets
	// against exact RWR.
	s := main.res.Summary
	w, err := pegasus.NewWeights(g, targets, buildAlpha)
	if err != nil {
		return err
	}
	r.setE2E("personalized_error", pegasus.PersonalizedError(g, s, w), "error")
	r.setE2E("query_p50_ms", median(sw.net), "ms")
	r.note("query_p50_ms is the median of %d answers in %d chunks, each chunk net of its steal; measured median %.4f ms, stolen shares %.3f",
		len(sw.net), len(sw.stolen), median(sw.raw), sw.stolen)
	r.noteTail(sw.net, "in-process RWR answers on the summary, each net of its chunk's steal")
	within := 0
	for _, l := range sw.net {
		if l <= sloLimitMs {
			within++
		}
	}
	r.setE2E("slo_qps", float64(within)/float64(len(sw.net))*1000/median(sw.net), "1/s")
	summarySession := func(pegasus.NodeID) pegasus.QuerySession { return pegasus.NewSummaryQuerySession(s) }
	answers, _, err := querySweep(summarySession, targets[:smapeSample], pegasus.RWRConfig{})
	if err != nil {
		return err
	}
	smape, err := rwrSMAPE(g, targets[:smapeSample], answers)
	if err != nil {
		return err
	}
	r.setE2E("rwr_smape", smape, "smape")
	rep := s.Describe()
	r.note("live artifact: %.0f size bits, %d encoded bytes, %d supernodes", rep.SizeBits, len(first), rep.Supernodes)

	if r.traced {
		if err := buildLayers(ctx, r, b, targets, s, plain, ingestS, main.times, second, allocMB/float64(builds), pauseMs); err != nil {
			return err
		}
	}
	r.finishE2E()
	return nil
}

// sweep collects the build workload's query latencies, chunk by chunk.
type sweep struct {
	net    []float64 // ms, net of the chunk's steal
	raw    []float64 // ms, as measured
	stolen []float64 // per chunk
}

// run answers one chunk of the sweep on the summary. The heap is collected
// first, so the build's garbage is not collected during the chunk.
func (sw *sweep) run(s *pegasus.Summary, qs []pegasus.NodeID) error {
	runtime.GC()
	t0 := readTicks()
	_, lat, err := querySweep(func(pegasus.NodeID) pegasus.QuerySession { return pegasus.NewSummaryQuerySession(s) }, qs, sweepConfig)
	if err != nil {
		return err
	}
	stolen := stolenShare(t0, readTicks())
	sw.raw = append(sw.raw, lat...)
	sw.net = append(sw.net, scaled(lat, 1-stolen)...)
	sw.stolen = append(sw.stolen, stolen)
	return nil
}

// querySweep answers RWR for every node in turn, each on a fresh session,
// and returns the answers and each answer's latency in ms. One query at a
// time: two concurrent queries on a 2-CPU host slow
// each other by up to half through the memory system, which would make the
// latency depend on how the two happened to overlap.
func querySweep(sessionFor func(pegasus.NodeID) pegasus.QuerySession, qs []pegasus.NodeID, cfg pegasus.RWRConfig) ([][]float64, []float64, error) {
	answers := make([][]float64, len(qs))
	lat := make([]float64, len(qs))
	for i, q := range qs {
		t := time.Now()
		a, err := sessionFor(q).RWR(q, cfg)
		if err != nil {
			return nil, nil, fmt.Errorf("query sweep: %w", err)
		}
		answers[i], lat[i] = a, ms(time.Since(t))
	}
	return answers, lat, nil
}

// rwrSMAPE is the mean SMAPE of the approximate RWR answers against exact
// graph RWR for the same query nodes.
func rwrSMAPE(g *pegasus.Graph, qs []pegasus.NodeID, approx [][]float64) (float64, error) {
	vals := make([]float64, len(qs))
	errs := make([]error, len(qs))
	var wg sync.WaitGroup
	sem := make(chan struct{}, conns)
	for i, q := range qs {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, q pegasus.NodeID) {
			defer wg.Done()
			defer func() { <-sem }()
			exact, err := pegasus.GraphRWR(g, q, pegasus.RWRConfig{})
			if err != nil {
				errs[i] = err
				return
			}
			vals[i], errs[i] = pegasus.SMAPE(exact, approx[i])
		}(i, q)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return 0, fmt.Errorf("rwr_smape: %w", err)
		}
	}
	return mean(vals), nil
}

// buildLayers measures every layer in a traced build run. The engine and
// persistence layers come from the traced builds; the serving layers, idle
// in this workload, are measured by a short probe against a 2-shard server
// over the same graph and targets.
func buildLayers(ctx context.Context, r *run, b *buildJob, targets []pegasus.NodeID, s *pegasus.Summary, plain int, ingestS, plainS []float64, traced *series, allocMBPerOp, pauseMs float64) error {
	r.setLayer("ingest.ms", 1000*median(ingestS), "ms")
	r.setLayer("ingest.mb_per_s", float64(plain)/1e6/median(ingestS), "MB/s")
	if err := weightsLayer(r, b.g, [][]pegasus.NodeID{targets}, buildAlpha); err != nil {
		return err
	}
	views := make([]pegasus.TraceView, len(traced.traces))
	for i, tr := range traced.traces {
		views[i] = tr.View()
	}
	self := coreLayers(r, views, len(views))
	countLayers(r, traced.iters)
	summaryLayers(r, b.g, []*pegasus.Summary{s})
	if err := persistLayers(r, []*pegasus.Summary{s}); err != nil {
		return err
	}
	if err := queriesLayers(r, func(pegasus.NodeID) pegasus.QuerySession { return pegasus.NewSummaryQuerySession(s) }, targets[:8]); err != nil {
		return err
	}
	runtimeLayers(r, allocMBPerOp, pauseMs)

	// Attribution of the traced build: span self times plus the encode the
	// benchmark timed; the rest of the build's measured wall time is
	// unattributed. The overhead compares the steal-adjusted medians.
	e2e := 1000 * median(traced.raw)
	self["persist.encode"] = r.layers["persist.encode_ms"].Value
	names := make([]string, 0, len(self))
	attributed := 0.0
	for n, t := range self {
		names = append(names, n)
		attributed += t
	}
	sort.Strings(names)
	for _, n := range names {
		r.note("attribution %-22s self %9.3f ms/build  %5.1f%%", n, self[n], 100*self[n]/e2e)
	}
	r.note("attribution %-22s      %9.3f ms/build  %5.1f%%", "unattributed", e2e-attributed, 100*(e2e-attributed)/e2e)
	r.setLayer("attrib.unattributed_share", (e2e-attributed)/e2e, "ratio")
	over := 1000 * (median(traced.times) - median(plainS))
	r.setLayer("attrib.trace_overhead_ms", over, "ms")
	r.note("tracing overhead: traced build median %.1f ms (%d builds) vs untraced %.1f ms (%d builds), net of steal",
		1000*median(traced.times), len(traced.times), 1000*median(plainS), len(plainS))
	return probeServe(ctx, r, b.g, targets)
}

// probeRate and probeTime shape the build workload's serving probe: a low
// open-loop rate, every request traced.
const (
	probeRate = 5.0
	probeTime = 3 * time.Second
)

// probeServe measures the partition, distributed, server and loadgen layers
// on the build workload's graph. It is not part of the build workload's
// end-to-end path, so it sets no attribution metric.
func probeServe(ctx context.Context, r *run, g *pegasus.Graph, targets []pegasus.NodeID) error {
	in, err := newServeInput(g)
	if err != nil {
		return err
	}
	tr := pegasus.NewTrace()
	t, _, _, err := boot(ctx, r, in, serveConfig(targets), tr)
	r.count(1, 0)
	if err != nil {
		return err
	}
	defer t.close()
	if err := partitionLayer(r, g, serveSeed); err != nil {
		return err
	}
	distributedLayers(r, shardBuilds([]pegasus.TraceView{tr.View()}))
	rng := rand.New(rand.NewSource(r.seed + 2))
	jobs := uniformJobs(0, probeRate, probeTime, func(int) uint32 { return uint32(rng.Intn(g.NumNodes())) })
	markSamples(rng, jobs, 0, 1)
	before := t.scrape(ctx, true)
	p := runPhase(ctx, t.client, t.base, jobs, probeTime, probeTime)
	after := t.scrape(ctx, true)
	countPhases(r, []*phase{p})
	serverLayers(r, []*phase{p}, before, after, nil, false)
	batchLayer(r, p)
	return nil
}
