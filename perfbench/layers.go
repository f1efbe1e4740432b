package main

import (
	"bytes"
	"context"
	"encoding/json"
	"sort"
	"strconv"
	"strings"
	"time"

	"pegasus"
)

// Per-layer measurement for traced runs. Every number is taken from outside
// the program: the benchmark times its own calls into each layer's public
// functions and reads the spans the program already exports (build.* spans
// through ContextWithTrace, request timelines through ?debug=1).

// coreSpans maps the engine's build spans to the core layer metrics.
// build.sparsify has no metric: the merge loop meets the budget on every
// workload, so it never runs (the attribution table lists it if it does).
var coreSpans = []struct{ span, metric string }{
	{"build.shingle", "core.shingle.ms"},
	{"build.candidates", "core.candidates.ms"},
	{"build.lsh", "core.candidates.ms"},
	{"build.merge", "core.merge.ms"},
	{"build.finalize", "core.finalize.ms"},
}

// coreLayers sets the core.*.ms self times per summary build from the
// spans of the given traces (builds is the number of summaries they built)
// and returns the per-build self time of every build.* span, weights
// included, for the attribution table.
func coreLayers(r *run, views []pegasus.TraceView, builds int) map[string]float64 {
	self := map[string]float64{}
	for _, v := range views {
		for name, t := range selfTimes(v.Spans) {
			self[name] += t
		}
		if v.DroppedSpans > 0 {
			r.note("a build trace dropped %d spans; its self times are incomplete", v.DroppedSpans)
		}
	}
	per := map[string]float64{}
	for _, c := range coreSpans {
		r.setLayer(c.metric, r.layers[c.metric].Value+self[c.span]/float64(max(builds, 1)), "ms")
	}
	for name, t := range self {
		if strings.HasPrefix(name, "build.") && name != "build.shard" {
			per[name] = t / float64(max(builds, 1))
		}
	}
	return per
}

// shardBuilds returns the durations (ms) of the build.shard spans that
// summarized (not reused or loaded) a shard.
func shardBuilds(views []pegasus.TraceView) []float64 {
	var out []float64
	for _, v := range views {
		for _, s := range v.Spans {
			if s.Name == "build.shard" && attr(s, "source") == "summarize" {
				out = append(out, float64(s.DurationUs)/1000)
			}
		}
	}
	return out
}

func attr(s pegasus.SpanView, key string) string {
	for _, a := range s.Attrs {
		if a.Key == key {
			return a.Val
		}
	}
	return ""
}

// countLayers sets the engine's counts per summary build from Config.Trace.
func countLayers(r *run, stats []pegasus.IterStats) {
	var builds, groups, merges, rejections float64
	for _, s := range stats {
		if s.Iteration == 1 {
			builds++
		}
		groups += float64(s.Groups)
		merges += float64(s.Merges)
		rejections += float64(s.Rejections)
	}
	builds = max(builds, 1)
	r.setLayer("core.iterations", float64(len(stats))/builds, "count")
	r.setLayer("core.groups", groups/builds, "count")
	r.setLayer("core.merges", merges/builds, "count")
	r.setLayer("core.rejections", rejections/builds, "count")
	ratio := 0.0
	if merges+rejections > 0 {
		ratio = merges / (merges + rejections)
	}
	r.setLayer("core.merge_accept_ratio", ratio, "ratio")
}

// summaryLayers sets the structure of the summaries (mean over them).
func summaryLayers(r *run, g *pegasus.Graph, ss []*pegasus.Summary) {
	var sup, sedges, bits float64
	for _, s := range ss {
		rep := s.Describe()
		sup += float64(rep.Supernodes)
		sedges += float64(rep.Superedges)
		bits += rep.SizeBits
	}
	n := float64(len(ss))
	r.setLayer("summary.supernodes", sup/n, "count")
	r.setLayer("summary.superedges", sedges/n, "count")
	r.setLayer("summary.size_bits", bits/n, "bits")
	r.setLayer("summary.size_ratio", bits/n/g.SizeBits(), "ratio")
}

// persistLayers times artifact encode and decode (median of five each,
// mean over the summaries) and reports the encoded size.
func persistLayers(r *run, ss []*pegasus.Summary) error {
	var enc, dec, size float64
	for _, s := range ss {
		var es, ds []float64
		var data []byte
		for i := 0; i < 5; i++ {
			var buf bytes.Buffer
			t0 := time.Now()
			if err := pegasus.EncodeArtifact(&buf, pegasus.Artifact{Summary: s}); err != nil {
				return err
			}
			es = append(es, ms(time.Since(t0)))
			data = buf.Bytes()
			t0 = time.Now()
			if _, err := pegasus.DecodeArtifact(data); err != nil {
				return err
			}
			ds = append(ds, ms(time.Since(t0)))
		}
		enc += median(es)
		dec += median(ds)
		size += float64(len(data))
	}
	n := float64(len(ss))
	r.setLayer("persist.encode_ms", enc/n, "ms")
	r.setLayer("persist.decode_ms", dec/n, "ms")
	r.setLayer("persist.artifact_bytes", size/n, "bytes")
	return nil
}

// weightsLayer times NewWeights for each target set (median of three,
// mean over the sets).
func weightsLayer(r *run, g *pegasus.Graph, sets [][]pegasus.NodeID, alpha float64) error {
	total := 0.0
	for _, ts := range sets {
		var xs []float64
		for i := 0; i < 3; i++ {
			t0 := time.Now()
			if _, err := pegasus.NewWeights(g, ts, alpha); err != nil {
				return err
			}
			xs = append(xs, ms(time.Since(t0)))
		}
		total += median(xs)
	}
	r.setLayer("weights.ms", total/float64(len(sets)), "ms")
	return nil
}

// queriesLayers splits an RWR query on a real session into its parts,
// medians over the query nodes. The precompute is the first one-iteration
// call on a fresh session minus a repeat of it on the same session; the
// per-iteration cost is a full repeat call divided by its iteration count,
// read from the session.rwr span; top-k is timed on its scores.
func queriesLayers(r *run, sessionFor func(q pegasus.NodeID) pegasus.QuerySession, nodes []pegasus.NodeID) error {
	var pre, iter, iters, topk []float64
	one := pegasus.RWRConfig{MaxIter: 1}
	for _, q := range nodes {
		sess := sessionFor(q)
		t0 := time.Now()
		if _, err := sess.RWR(q, one); err != nil {
			return err
		}
		first := time.Since(t0)
		t0 = time.Now()
		if _, err := sess.RWR(q, one); err != nil {
			return err
		}
		pre = append(pre, ms(first-time.Since(t0)))
		tr := pegasus.NewTrace()
		t0 = time.Now()
		scores, err := sess.RWR(q, pegasus.RWRConfig{Ctx: pegasus.ContextWithTrace(context.Background(), tr)})
		if err != nil {
			return err
		}
		full := time.Since(t0)
		n := 0
		for _, s := range tr.View().Spans {
			if s.Name == "session.rwr" {
				n, _ = strconv.Atoi(attr(s, "iterations"))
			}
		}
		t0 = time.Now()
		pegasus.TopK(scores, 10)
		topk = append(topk, ms(time.Since(t0)))
		iters = append(iters, float64(n))
		iter = append(iter, ms(full)/float64(max(n, 1)))
	}
	r.setLayer("queries.precompute_ms", median(pre), "ms")
	r.setLayer("queries.iter_ms", median(iter), "ms")
	r.setLayer("queries.iterations", median(iters), "count")
	r.setLayer("queries.topk_ms", median(topk), "ms")
	return nil
}

// partitionLayer times PartitionGraph as the server calls it (median of 3).
func partitionLayer(r *run, g *pegasus.Graph, seed int64) error {
	var xs []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		if _, err := pegasus.PartitionGraph(g, serveShards, pegasus.PartitionRandom, seed); err != nil {
			return err
		}
		xs = append(xs, ms(time.Since(t0)))
	}
	r.setLayer("partition.ms", median(xs), "ms")
	return nil
}

// distributedLayers sets the slowest and mean shard build time.
func distributedLayers(r *run, builds []float64) {
	mx := 0.0
	for _, b := range builds {
		mx = max(mx, b)
	}
	r.setLayer("distributed.shard_build_ms.max", mx, "ms")
	r.setLayer("distributed.shard_build_ms.mean", mean(builds), "ms")
}

// scrape reads the server's /metrics snapshot in traced runs (nil
// otherwise or on error: the cache metrics then read 0).
func (t *target) scrape(ctx context.Context, traced bool) *pegasus.MetricsSnapshot {
	if !traced {
		return nil
	}
	var m pegasus.MetricsSnapshot
	if err := t.getJSON(ctx, "/metrics", &m); err != nil {
		return nil
	}
	return &m
}

// serverLayers derives the serving layer metrics from the phases' ?debug=1
// timelines, the /metrics snapshots around them, and json.Marshal of the
// served response type; it prints the request-path attribution table.
//
// attribute selects whether the request path is the workload's end-to-end
// path: only then do its unattributed share and tracing overhead become the
// attrib.* metrics.
func serverLayers(r *run, phases []*phase, before, after *pegasus.MetricsSnapshot, rebuilt []pegasus.SummarizeResponse, attribute bool) {
	var compute, queue, enc, kb []float64
	self := map[string]float64{}
	var service, handler float64
	traced, plain := map[string][]float64{}, map[string][]float64{}
	sent, failed := 0.0, 0.0
	var lag []float64
	for _, p := range phases {
		lag = append(lag, p.lag...)
		for i := range p.jobs {
			j, o := &p.jobs[i], &p.out[i]
			if !o.sent {
				continue
			}
			sent++
			if !o.ok() {
				failed++
				continue
			}
			if j.kind == "batch" {
				continue
			}
			if !j.debug {
				plain[j.kind] = append(plain[j.kind], ms(o.service))
				kb = append(kb, float64(o.bytes)/1000)
				continue
			}
			traced[j.kind] = append(traced[j.kind], ms(o.service))
			var resp pegasus.QueryResponse
			if json.Unmarshal(o.body, &resp) != nil || resp.Trace == nil {
				continue
			}
			spans := resp.Trace.Spans
			for k, s := range spans {
				switch {
				case strings.HasPrefix(s.Name, "session."):
					compute = append(compute, float64(s.DurationUs)/1000)
					if pa := s.Parent; pa >= 0 && strings.HasPrefix(spans[pa].Name, "compute.") {
						queue = append(queue, float64(s.StartUs-spans[pa].StartUs)/1000)
					}
				case s.Name == "compute.hop":
					compute = append(compute, float64(s.DurationUs)/1000)
				case s.Name == "handler" && s.Parent < 0 && k == 0:
					handler += float64(s.DurationUs) / 1000
					service += ms(o.service)
				}
			}
			for name, t := range selfTimes(spans) {
				self[name] += t
			}
			// The handler span is snapshotted before the response is
			// encoded, so the encode is timed here on the served value.
			resp.Trace = nil
			var xs []float64
			for k := 0; k < 3; k++ {
				t0 := time.Now()
				_, _ = json.Marshal(resp) // marshalling a decoded response cannot fail
				xs = append(xs, ms(time.Since(t0)))
			}
			self["json.Marshal"] += median(xs)
			if raw, err := json.Marshal(resp); err == nil {
				kb = append(kb, float64(len(raw)+1)/1000) // writeJSON appends a newline
			}
			if len(resp.Scores) > 0 {
				enc = append(enc, median(xs))
			}
		}
	}
	r.setLayer("server.compute_ms.p50", quantile(compute, 0.5), "ms")
	r.setLayer("server.compute_ms.p99", quantile(compute, tailQuantile(len(compute))), "ms")
	r.setLayer("server.queue_wait_ms.p50", quantile(queue, 0.5), "ms")
	r.setLayer("server.queue_wait_ms.p99", quantile(queue, tailQuantile(len(queue))), "ms")
	r.setLayer("server.encode_ms", median(enc), "ms")
	r.setLayer("server.response_kb", mean(kb), "kB")
	r.note("server: %d computed answers in the sampled timelines (compute/queue tail is p%.1f); queue wait includes the per-request session precompute",
		len(compute), 100*tailQuantile(len(compute)))

	hit, shared := 0.0, 0.0
	if before != nil && after != nil {
		h := float64(after.Cache.Hits - before.Cache.Hits)
		m := float64(after.Cache.Misses - before.Cache.Misses)
		shared = float64(after.Cache.Shared - before.Cache.Shared)
		if h+m+shared > 0 {
			hit = h / (h + m + shared)
		}
	}
	r.setLayer("server.cache.hit_ratio", hit, "ratio")
	r.setLayer("server.cache.shared", shared, "count")
	reuse := 0.0
	for _, sr := range rebuilt {
		if n := sr.Rebuilt + sr.Reused + sr.Loaded; n > 0 {
			reuse += float64(sr.Reused) / float64(n) / float64(len(rebuilt))
		}
	}
	r.setLayer("server.rebuild.reuse_ratio", reuse, "ratio")

	r.setLayer("loadgen.lag_ms.p99", quantile(lag, 0.99), "ms")
	r.setLayer("loadgen.sent", sent, "count")
	r.setLayer("loadgen.failed", failed, "count")

	// Attribution: the sampled requests' client-observed service time split
	// into the server's span self times and the response encode; the rest
	// (wire, HTTP parsing, client) is unattributed. Tracing overhead
	// is the median service time of ?debug=1 requests minus that of plain
	// requests of the same kind, weighted by the traced sample.
	if service > 0 {
		names := make([]string, 0, len(self))
		for n := range self {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			r.note("attribution %-22s self %9.3f ms/request  %5.1f%%", n, self[n]/float64(countTraced(traced)), 100*self[n]/service)
		}
		rest := service - handler - self["json.Marshal"]
		r.note("attribution %-22s      %9.3f ms/request  %5.1f%%", "unattributed", rest/float64(countTraced(traced)), 100*rest/service)
		if attribute {
			r.setLayer("attrib.unattributed_share", rest/service, "ratio")
		}
	}
	over, weight := 0.0, 0.0
	for kind, xs := range traced {
		if len(plain[kind]) == 0 {
			continue
		}
		over += float64(len(xs)) * (median(xs) - median(plain[kind]))
		weight += float64(len(xs))
	}
	if weight > 0 && attribute {
		r.setLayer("attrib.trace_overhead_ms", over/weight, "ms")
	}
}

func countTraced(m map[string][]float64) int {
	n := 0
	for _, xs := range m {
		n += len(xs)
	}
	return max(n, 1)
}

// runtimeLayers sets allocation per operation and GC pause time.
func runtimeLayers(r *run, allocMBPerOp, pauseMs float64) {
	r.setLayer("runtime.alloc_mb_per_op", allocMBPerOp, "MB")
	r.setLayer("runtime.gc_pause_ms", pauseMs, "ms")
}

// shardTargets returns each shard's resolved target set: its partition part
// intersected with targets, or the whole part when that is empty.
func shardTargets(labels []uint32, m int, targets []pegasus.NodeID) [][]pegasus.NodeID {
	in := map[pegasus.NodeID]bool{}
	for _, t := range targets {
		in[t] = true
	}
	parts := make([][]pegasus.NodeID, m)
	sel := make([][]pegasus.NodeID, m)
	for u, l := range labels {
		parts[l] = append(parts[l], pegasus.NodeID(u))
		if in[pegasus.NodeID(u)] {
			sel[l] = append(sel[l], pegasus.NodeID(u))
		}
	}
	for i := range sel {
		if len(sel[i]) == 0 {
			sel[i] = parts[i]
		}
	}
	return sel
}

// clusterLayers measures the layers below the server on the serving
// cluster's in-process twin: partition, weights, engine counts, summary
// structure, persistence and query sessions.
func clusterLayers(r *run, a *artifact) error {
	if err := partitionLayer(r, a.g, a.cfg.Seed); err != nil {
		return err
	}
	if err := weightsLayer(r, a.g, shardTargets(a.labels, a.cfg.Shards, a.cfg.Targets), a.cfg.Alpha); err != nil {
		return err
	}
	countLayers(r, a.stats)
	var ss []*pegasus.Summary
	for _, m := range a.c.Machines {
		ss = append(ss, m.Summary)
	}
	summaryLayers(r, a.g, ss)
	if err := persistLayers(r, ss); err != nil {
		return err
	}
	return queriesLayers(r, a.session, sampleNodes(a.rng, a.g.NumNodes(), 8))
}

// batchLayer sets server.batch.fanout from the batch answers of a phase:
// the mean number of shards one batch was routed to (0 without batches).
func batchLayer(r *run, p *phase) {
	var groups []float64
	for i := range p.jobs {
		var br pegasus.BatchResponse
		if p.jobs[i].kind == "batch" && p.out[i].ok() && json.Unmarshal(p.out[i].body, &br) == nil {
			groups = append(groups, float64(br.ShardGroups))
		}
	}
	r.setLayer("server.batch.fanout", mean(groups), "shards")
}
