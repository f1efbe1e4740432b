package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sort"
	"time"

	"pegasus"
)

// The serving workload runs a 2-shard server over the DBLP stand-in of the
// repository's dataset registry at scale 3 (a planted-partition SBM with the
// registry's generator seed): the §IV communication-free deployment at a
// size where an RWR answer is a ~50 KB body and a shard rebuild takes a few
// hundred milliseconds. The deployment (graph, partition and engine seed)
// is the same for every --seed, which draws the query nodes: RWR
// convergence, and with it query cost, changes several-fold between
// summaries built with different seeds, which would swamp every latency
// metric's run-to-run spread.
const (
	serveNodes       = 4500
	serveCommunities = 40
	serveDegree      = 6.6
	serveMixing      = 0.08
	serveGraphSeed   = 103
	serveSeed        = 1
	serveShards      = 2
	serveAlpha       = 1.25
	serveBudget      = 0.5
	// bootReps boots the server this many times in set-up, after the
	// warm-up boots; setup_s is the median, and the last server takes the
	// load.
	bootReps = 7
)

// sloLimitMs is the latency limit slo_qps holds the tail percentile to.
const sloLimitMs = 250.0

// uniformLadder holds the serve-uniform open-loop Poisson rates (requests/s).
// The first is the nominal rate: it gets four fifths of the run, so its
// tail percentile has hundreds of samples, and query_p50_ms and the tail
// are read there. The others get a tenth each. Every step runs, so a stall
// that makes one step miss the limit does not hide the steps after it. On
// the reference host (2 CPUs, ~33 ms per answer on the summaries the
// rebuilds leave) the nominal rate keeps the server under half busy, so a
// slower host moves the median by its slowdown and not by a longer queue;
// 40/s keeps it two thirds busy and meets the limit with a wide margin, and
// 300/s is far past saturation.
var uniformLadder = []float64{25, 40, 300}

// lagLimitMs is how far behind its schedule the load generator may run, at
// the 99th percentile, before the run is invalid.
const lagLimitMs = 50.0

// checkLag fails the run when the generator fell behind its schedule in
// the phases whose latencies the metrics use.
func checkLag(r *run, phases []*phase) {
	var lag []float64
	for _, p := range phases {
		lag = append(lag, p.lag...)
	}
	p99 := quantile(lag, 0.99)
	r.check("generator_on_time", p99 <= lagLimitMs, "lag behind the schedule p99 %.2f ms (limit %.0f ms) over %d requests", p99, lagLimitMs, len(lag))
}

// The nominal step of serve-uniform runs in nominalSegments segments. Before
// the first and after each one, an idle window times windowBuilds
// in-process builds of the serving cluster (build_s) and one POST
// /v1/summarize per shard, each moving that shard's targets (rebuild_s).
// A build or rebuild takes a fraction of a second; spread over the run,
// the windows catch the host's speed at several moments rather than one.
const (
	nominalSegments = 4
	windowBuilds    = 3
)

// After the ladder, serve-uniform sends a verification
// phase: verifyRequests single queries on nodes the ladder asked (so the
// shard a rebuild left unchanged answers from its cache) plus verifyBatches
// 32-node batch requests, all checked against the in-process cluster.
const (
	verifyRate     = 20.0
	verifyRequests = 40
	verifyBatches  = 4
	batchSize      = 32
	// targetsPerPart is the size of the target set a rebuild gives a shard.
	targetsPerPart = 25
)

// queryKinds is the query mix, one kind drawn uniformly per request: topk
// and rwr three eighths each, php and hop an eighth each, every kind at the
// API defaults. Similarity search dominates, and the median request falls
// well inside the rwr/topk latency mode rather than on the edge between
// the php and rwr modes.
var queryKinds = []string{"topk", "topk", "topk", "rwr", "rwr", "rwr", "php", "hop"}

// target is one server booted on a loopback listener.
type target struct {
	srv    *pegasus.Server
	hs     *http.Server
	served chan error
	base   string
	client *http.Client
}

// boot ingests the SNAP bytes, builds the server and serves its Handler on
// a loopback listener; it returns once /healthz answers. tr, when non-nil,
// records the build spans.
func boot(ctx context.Context, r *run, in *serveInput, cfg pegasus.ServerConfig, tr *pegasus.Trace) (*target, time.Duration, time.Duration, error) {
	t0 := time.Now()
	g, ingestD, err := ingest(r, in.data, in.fp)
	if err != nil {
		return nil, 0, 0, err
	}
	bctx := ctx
	if tr != nil {
		bctx = pegasus.ContextWithTrace(ctx, tr)
	}
	srv, err := pegasus.NewServer(bctx, g, cfg)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("new server: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, 0, fmt.Errorf("listen: %w", err)
	}
	t := &target{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second},
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
		client: newClient(),
	}
	go func() { t.served <- t.hs.Serve(ln) }()
	if err := t.getJSON(ctx, "/healthz", nil); err != nil {
		t.close()
		return nil, 0, 0, err
	}
	return t, time.Since(t0), ingestD, nil
}

// close shuts the listener down and waits for the serve loop to return.
func (t *target) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = t.hs.Shutdown(ctx) // a drain timeout only leaves connections to the process exit
	<-t.served
	t.client.CloseIdleConnections()
}

func (t *target) getJSON(ctx context.Context, path string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, t.base+path, nil)
	if err != nil {
		return err
	}
	resp, err := t.client.Do(req)
	if err != nil {
		return fmt.Errorf("GET %s: %w", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	if v == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// serveInput is a serving workload's generated input.
type serveInput struct {
	data  []byte // gzip SNAP edge list
	plain int    // uncompressed bytes
	fp    string // source fingerprint
	src   *pegasus.Graph
}

func newServeInput(g *pegasus.Graph) (*serveInput, error) {
	data, plain, err := snapGzip(g)
	if err != nil {
		return nil, err
	}
	return &serveInput{data: data, plain: plain, fp: pegasus.GraphFingerprint(g), src: g}, nil
}

func sbmGraph() *pegasus.Graph {
	g, _ := pegasus.LargestComponent(pegasus.GenerateSBM(serveNodes, serveCommunities, serveDegree, serveMixing, serveGraphSeed))
	return g
}

// serveSession is a booted serving workload.
type serveSession struct {
	in      *serveInput
	cfg     pegasus.ServerConfig
	t       *target
	bootTr  *pegasus.Trace // traced runs: the spans of the last boot
	setupS  []float64
	ingestS []float64
}

// setupServe boots the server warmSetups times untimed, then bootReps times
// timed (closing all but the last), and records setup_s.
func setupServe(ctx context.Context, r *run, in *serveInput, cfg pegasus.ServerConfig) (*serveSession, error) {
	s := &serveSession{in: in, cfg: cfg}
	var t0 cpuTicks
	for i := 0; i < warmSetups+bootReps; i++ {
		last := i == warmSetups+bootReps-1
		var tr *pegasus.Trace
		if r.traced && last {
			tr = pegasus.NewTrace()
		}
		if i == warmSetups {
			t0 = readTicks()
		}
		runtime.GC() // the servers closed before this one are garbage
		t, d, ingestD, err := boot(ctx, r, in, cfg, tr)
		r.count(1, 0)
		if err != nil {
			return nil, err
		}
		if i >= warmSetups {
			s.setupS = append(s.setupS, d.Seconds())
			s.ingestS = append(s.ingestS, ingestD.Seconds())
		}
		if !last {
			t.close()
			continue
		}
		s.t, s.bootTr = t, tr
	}
	r.setTime("setup_s", median(s.setupS), stolenShare(t0, readTicks()), "s")
	r.note("setup_s boots %.3f s, of which ingest %.3f s", s.setupS, s.ingestS)
	return s, nil
}

func serveConfig(targets []pegasus.NodeID) pegasus.ServerConfig {
	return pegasus.ServerConfig{Shards: serveShards, Seed: serveSeed, Alpha: serveAlpha,
		BudgetRatio: serveBudget, Targets: targets}
}

// scheduleSeed seeds every phase's arrival schedule and the rebuilds'
// target sets: due times, query kinds and targets are the same for every
// --seed, which draws the query nodes. The tail latency of an open loop is set by the few
// largest arrival bursts and what they carry; drawn per seed, their luck
// would dominate the tail's run-to-run spread.
const scheduleSeed = 1

// arrival is one slot of an open-loop schedule.
type arrival struct {
	due  time.Duration
	kind string
}

// schedule returns one phase's arrivals: a Poisson process of the given rate
// over d conditioned on its expected count (rate·d due times drawn uniformly
// over d, sorted), so arrivals keep Poisson burstiness while every run
// offers exactly the same load. step distinguishes the phases of a run.
func schedule(step int, rate float64, d time.Duration) []arrival {
	rng := rand.New(rand.NewSource(scheduleSeed + int64(step)))
	dues := make([]time.Duration, int(rate*d.Seconds()))
	for i := range dues {
		dues[i] = time.Duration(rng.Int63n(int64(d)))
	}
	sort.Slice(dues, func(a, b int) bool { return dues[a] < dues[b] })
	out := make([]arrival, len(dues))
	for i, due := range dues {
		out[i] = arrival{due: due, kind: queryKinds[rng.Intn(len(queryKinds))]}
	}
	return out
}

// queryJob builds a single-query job.
func queryJob(due time.Duration, kind string, node uint32) job {
	body, _ := json.Marshal(pegasus.QueryRequest{Node: node}) // plain struct: cannot fail
	return job{due: due, path: "/v1/query/" + kind, body: body, kind: kind, nodes: []uint32{node}}
}

// uniformJobs is one phase of single queries: the scheduled arrivals, the
// i-th asking node(i).
func uniformJobs(step int, rate float64, d time.Duration, node func(i int) uint32) []job {
	var jobs []job
	for i, a := range schedule(step, rate, d) {
		jobs = append(jobs, queryJob(a.due, a.kind, node(i)))
	}
	return jobs
}

// markSamples flags a seeded share of the jobs for answer verification and,
// in traced runs, for ?debug=1 timelines.
func markSamples(rng *rand.Rand, jobs []job, verifyShare, debugShare float64) {
	for i := range jobs {
		jobs[i].keep = rng.Float64() < verifyShare
		jobs[i].debug = rng.Float64() < debugShare
	}
}

func runServeUniform(ctx context.Context, r *run) error {
	rng := rand.New(rand.NewSource(r.seed))
	in, err := newServeInput(sbmGraph())
	if err != nil {
		return err
	}
	g := in.src
	cfg := serveConfig(nil)
	pk, err := newPicker(g, cfg, rand.New(rand.NewSource(scheduleSeed)))
	if err != nil {
		return err
	}
	// Query nodes are uniform over each shard's part, alternating shards:
	// the shards' summaries differ in per-query cost, and an exact half of
	// the traffic on each keeps the median off the luck of the split.
	node := func(i int) uint32 {
		part := pk.parts[i%len(pk.parts)]
		return uint32(part[rng.Intn(len(part))])
	}
	s, err := setupServe(ctx, r, in, cfg)
	if err != nil {
		return err
	}
	defer s.t.close()
	// The first window runs before the load, while the heap holds no cached
	// answers; the quality metrics read its first in-process cluster.
	art, err := newArtifact(g, cfg, rng)
	if err != nil {
		return err
	}
	rb := &rebuilds{pk: pk, gens: map[uint64][]pegasus.NodeID{1: nil}}
	if err := idleWindow(ctx, r, art, rb, s.t); err != nil {
		return err
	}
	if err := art.quality(r); err != nil {
		return err
	}

	// A short unmeasured warm-up at the lowest rate.
	runPhase(ctx, s.t.client, s.t.base, uniformJobs(-1, uniformLadder[0], time.Second, node), time.Second, 0)

	debugShare := 0.0
	if r.traced {
		debugShare = 0.25
	}
	before := s.t.scrape(ctx, r.traced)
	var allocMB, pauseMs float64
	var all, counted []*phase
	slo := 0.0
	for k, rate := range uniformLadder {
		d := r.seconds / 10
		if k == 0 {
			d = r.seconds * 4 / 5
		}
		jobs := uniformJobs(k, rate, d, node)
		markSamples(rng, jobs, 40/(rate*d.Seconds()), debugShare)
		// The nominal step runs in segments with an idle window after each;
		// the other steps run whole.
		segs := 1
		if k == 0 {
			segs = nominalSegments
		}
		seg := d / time.Duration(segs)
		var parts []*phase
		for i := 0; i < segs; i++ {
			mem := startMem()
			p := runPhase(ctx, s.t.client, s.t.base, segment(jobs, time.Duration(i)*seg, seg), seg, time.Second)
			a, ps := mem.end()
			allocMB, pauseMs = allocMB+a, pauseMs+ps
			parts = append(parts, p)
			if k == 0 {
				if err := idleWindow(ctx, r, art, rb, s.t); err != nil {
					return err
				}
			}
		}
		p := joinPhases(parts, seg)
		all = append(all, p)
		lat, failed := p.queryLatencies()
		lat = scaled(lat, 1-p.stolen)
		tq := tailQuantile(len(lat))
		tail := quantile(lat, tq)
		pass := failed == 0 && p.dropped == 0 && tail <= sloLimitMs
		verdict := "meets"
		if !pass {
			verdict = "misses"
		}
		r.note("ladder %.0f/s: %d requests, p50 %.1f ms, p%.1f %.1f ms, failed or dropped %d, backlog %d, lag p99 %.2f ms, steal %.3f -> %s the %.0f ms limit",
			rate, len(lat), quantile(lat, 0.5), 100*tq, tail, failed, p.dropped, quantile(p.lag, 0.99), p.stolen, verdict, sloLimitMs)
		if k == 0 || pass {
			slo = goodput(p, sloLimitMs/(1-p.stolen))
			counted = append(counted, p)
		}
	}
	after := s.t.scrape(ctx, r.traced)
	r.setE2E("slo_qps", slo, "1/s")
	reportLatency(r, all[0], uniformLadder[0])
	countPhases(r, all)
	checkLag(r, counted)
	r.check("idle_rebuild", rb.wrong == 0, "%d of %d rebuilds did not rebuild exactly the moved shard", rb.wrong, len(rb.net))
	r.setE2E("rebuild_s", median(rb.net), "s")
	r.note("rebuild_s is the median of %d POST /v1/summarize in %d windows, each window net of its steal; measured median %.4f s, stolen shares %.3f",
		len(rb.net), len(rb.stolen), median(rb.raw), rb.stolen)

	// Verification phase: nodes the ladder asked, so the shard the last
	// rebuild left unchanged answers from its cache, plus batch requests.
	var asked []uint32
	for _, j := range all[0].jobs {
		asked = append(asked, j.nodes[0])
	}
	vd := time.Duration(float64(verifyRequests+verifyBatches) / verifyRate * float64(time.Second))
	var vjobs []job
	for i, a := range schedule(len(uniformLadder), verifyRate, vd) {
		if i%((verifyRequests+verifyBatches)/verifyBatches) == 0 {
			nodes := make([]uint32, batchSize)
			for k := range nodes {
				nodes[k] = asked[rng.Intn(len(asked))]
			}
			body, _ := json.Marshal(pegasus.BatchRequest{Kind: a.kind, Nodes: nodes}) // plain struct: cannot fail
			vjobs = append(vjobs, job{due: a.due, path: "/v1/query/batch", body: body, kind: "batch", batchKind: a.kind, nodes: nodes, keep: true})
			continue
		}
		j := queryJob(a.due, a.kind, asked[rng.Intn(len(asked))])
		j.keep = true
		vjobs = append(vjobs, j)
	}
	vp := runPhase(ctx, s.t.client, s.t.base, vjobs, vd, 5*time.Second)
	countPhases(r, []*phase{vp})
	if err := s.verify(ctx, r, append(all, vp), rb.gens); err != nil {
		return err
	}
	art.finish(r)
	if r.traced {
		if err := s.layers(r, art, counted, before, after, allocMB, pauseMs, rb.resp, []pegasus.TraceView{s.bootTr.View()}); err != nil {
			return err
		}
		batchLayer(r, vp)
	}
	r.finishE2E()
	return nil
}

// idleWindow runs one idle window between load segments: windowBuilds
// in-process builds, then a rebuild of every shard on the server. The heap
// is collected before each of them and after the window, so none pays for
// the garbage of the one before it.
func idleWindow(ctx context.Context, r *run, a *artifact, rb *rebuilds, t *target) error {
	if err := a.builds(ctx, r, windowBuilds); err != nil {
		return err
	}
	if err := rb.run(ctx, r, t); err != nil {
		return err
	}
	runtime.GC()
	return nil
}

// rebuilds collects serve-uniform's POST /v1/summarize calls.
type rebuilds struct {
	pk     *picker
	gens   map[uint64][]pegasus.NodeID // target set of every generation served
	net    []float64                   // seconds, net of the window's steal
	raw    []float64                   // seconds, as measured
	stolen []float64                   // per window
	resp   []pegasus.SummarizeResponse
	wrong  int // rebuilds that did not rebuild exactly the moved shard
}

// run sends one rebuild per shard, each moving that shard's targets, with
// the heap collected before each (see artifact.builds).
func (rb *rebuilds) run(ctx context.Context, r *run, t *target) error {
	t0 := readTicks()
	var times []float64
	for k := 0; k < serveShards; k++ {
		runtime.GC()
		ts := rb.pk.move(k)
		sr, d, err := t.summarize(ctx, ts, r.traced)
		r.count(1, 0)
		if err != nil {
			return err
		}
		if sr.Rebuilt != 1 || sr.Reused != serveShards-1 {
			rb.wrong++
		}
		rb.gens[sr.Generation] = ts
		rb.resp = append(rb.resp, sr)
		times = append(times, d.Seconds())
	}
	stolen := stolenShare(t0, readTicks())
	rb.raw = append(rb.raw, times...)
	rb.net = append(rb.net, scaled(times, 1-stolen)...)
	rb.stolen = append(rb.stolen, stolen)
	return nil
}

// segment returns the jobs due in [from, from+d), their due times made
// relative to from.
func segment(jobs []job, from, d time.Duration) []job {
	var out []job
	for _, j := range jobs {
		if j.due >= from && j.due < from+d {
			j.due -= from
			out = append(out, j)
		}
	}
	return out
}

// joinPhases joins the segments of one ladder step, each seg long, into one
// phase: due times shift back by the segments before them, and the steal
// share is the mean over the requests.
func joinPhases(parts []*phase, seg time.Duration) *phase {
	p := &phase{}
	for i, q := range parts {
		for _, j := range q.jobs {
			j.due += time.Duration(i) * seg
			p.jobs = append(p.jobs, j)
		}
		p.out = append(p.out, q.out...)
		p.lag = append(p.lag, q.lag...)
		p.dropped += q.dropped
		p.stolen += q.stolen * float64(len(q.jobs))
	}
	if len(p.jobs) > 0 {
		p.stolen /= float64(len(p.jobs))
	}
	return p
}

// goodput is the rate of requests answered within the limit over the step
// from its start to its last completion.
func goodput(p *phase, limitMs float64) float64 {
	good := 0
	var last time.Duration
	for i := range p.jobs {
		o := &p.out[i]
		if o.ok() && ms(o.latency) <= limitMs {
			good++
		}
		if end := p.jobs[i].due + o.latency; o.sent && end > last {
			last = end
		}
	}
	if last == 0 {
		return 0
	}
	return float64(good) / last.Seconds()
}

// reportLatency sets query_p50_ms and prints the tail of the nominal phase.
func reportLatency(r *run, p *phase, rate float64) {
	lat, _ := p.queryLatencies()
	r.setTime("query_p50_ms", quantile(lat, 0.5), p.stolen, "ms")
	r.noteTail(scaled(lat, 1-p.stolen), fmt.Sprintf("requests at %.0f/s, net of %.3f steal", rate, p.stolen))
}

// countPhases adds every sent request of the phases to the attempt and
// failure counts.
func countPhases(r *run, phases []*phase) {
	for _, p := range phases {
		for i := range p.out {
			if o := &p.out[i]; o.sent {
				failed := int64(0)
				if !o.ok() {
					failed = 1
				}
				r.count(1, failed)
			}
		}
	}
}

// summarize sends one POST /v1/summarize setting the target set, outside
// any load phase, and returns the decoded response and its latency.
func (t *target) summarize(ctx context.Context, targets []pegasus.NodeID, debug bool) (pegasus.SummarizeResponse, time.Duration, error) {
	raw := make([]uint32, len(targets))
	for i, t := range targets {
		raw[i] = uint32(t)
	}
	body, _ := json.Marshal(pegasus.SummarizeRequest{Targets: &raw}) // plain struct: cannot fail
	j := job{path: "/v1/summarize", body: body, keep: true, debug: debug}
	o := send(ctx, t.client, t.base, &j, time.Now())
	var sr pegasus.SummarizeResponse
	if !o.ok() {
		return sr, 0, fmt.Errorf("POST /v1/summarize: %v", o.err)
	}
	if err := json.Unmarshal(o.body, &sr); err != nil {
		return sr, 0, fmt.Errorf("POST /v1/summarize: %w", err)
	}
	return sr, o.service, nil
}

// picker draws per-shard target sets: targetsPerPart seeded nodes of a
// shard's partition part. A shard without a drawn set keeps whole-part
// personalization.
type picker struct {
	rng   *rand.Rand
	parts [][]pegasus.NodeID
	cur   [][]pegasus.NodeID
}

func newPicker(g *pegasus.Graph, cfg pegasus.ServerConfig, rng *rand.Rand) (*picker, error) {
	labels, err := pegasus.PartitionGraph(g, cfg.Shards, pegasus.PartitionRandom, cfg.Seed)
	if err != nil {
		return nil, err
	}
	pk := &picker{rng: rng, parts: make([][]pegasus.NodeID, cfg.Shards), cur: make([][]pegasus.NodeID, cfg.Shards)}
	for u, l := range labels {
		pk.parts[l] = append(pk.parts[l], pegasus.NodeID(u))
	}
	return pk, nil
}

// move draws a fresh target set for one shard and returns the resulting
// target set of the whole cluster.
func (pk *picker) move(shard int) []pegasus.NodeID {
	part := pk.parts[shard]
	ts := make([]pegasus.NodeID, 0, targetsPerPart)
	for _, i := range pk.rng.Perm(len(part))[:targetsPerPart] {
		ts = append(ts, part[i])
	}
	pk.cur[shard] = ts
	return pk.targets()
}

// targets is the cluster's current target set, ascending.
func (pk *picker) targets() []pegasus.NodeID {
	var out []pegasus.NodeID
	for _, ts := range pk.cur {
		out = append(out, ts...)
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// layers sets every layer metric of a serving workload in a traced run.
// Engine self times come from buildViews (the boot, or the rebuilds on the
// rebuild workload); the layers below the server are measured on the
// in-process twin of the serving cluster.
func (s *serveSession) layers(r *run, art *artifact, phases []*phase, before, after *pegasus.MetricsSnapshot, allocMB, pauseMs float64, rebuilt []pegasus.SummarizeResponse, buildViews []pegasus.TraceView) error {
	r.setLayer("ingest.ms", 1000*median(s.ingestS), "ms")
	r.setLayer("ingest.mb_per_s", float64(s.in.plain)/1e6/median(s.ingestS), "MB/s")
	if err := clusterLayers(r, art); err != nil {
		return err
	}
	builds := shardBuilds(buildViews)
	coreLayers(r, buildViews, len(builds))
	distributedLayers(r, builds)
	serverLayers(r, phases, before, after, rebuilt, true)
	runtimeLayers(r, allocMB/max(r.layers["loadgen.sent"].Value, 1), pauseMs)
	return nil
}
