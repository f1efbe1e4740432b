package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"

	"pegasus/internal/obs"
)

// spanNames collects the set of span names in a timeline.
func spanNames(v *obs.TraceView) map[string]int {
	names := map[string]int{}
	if v == nil {
		return names
	}
	for _, s := range v.Spans {
		names[s.Name]++
	}
	return names
}

// TestQueryDebugTimeline is the acceptance check for request tracing: a
// ?debug=1 query response must carry a span timeline including (at least)
// the handler, cache, and session-evaluation spans, and the X-Trace-Id
// header must match the timeline's trace ID.
func TestQueryDebugTimeline(t *testing.T) {
	s := coldTestServer(t)
	h := s.Handler()

	// An uncached node so the compute path (and its session span) runs.
	res, raw := postJSON(t, h, "/v1/query/rwr?debug=1", QueryRequest{Node: 271})
	if res.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", res.StatusCode, raw)
	}
	var resp QueryResponse
	decodeInto(t, raw, &resp)
	if resp.Trace == nil {
		t.Fatal("?debug=1 response has no trace timeline")
	}
	hdr := res.Header.Get("X-Trace-Id")
	if hdr == "" {
		t.Fatal("X-Trace-Id header missing")
	}
	if resp.Trace.TraceID != hdr {
		t.Errorf("timeline trace id %q != X-Trace-Id header %q", resp.Trace.TraceID, hdr)
	}
	names := spanNames(resp.Trace)
	for _, want := range []string{"handler", "cache", "compute.rwr", "session.rwr"} {
		if names[want] == 0 {
			t.Errorf("timeline missing %q span; have %v", want, names)
		}
	}
	// The handler span is still open while the response is being written.
	if root := resp.Trace.Spans[0]; root.Name != "handler" || !root.Open {
		t.Errorf("first span = %+v, want an open handler root", root)
	}

	// A second identical request hits the cache: no session span, and a
	// distinct trace ID.
	res2, raw2 := postJSON(t, h, "/v1/query/rwr?debug=1", QueryRequest{Node: 271})
	var resp2 QueryResponse
	decodeInto(t, raw2, &resp2)
	if !resp2.Cached {
		t.Fatalf("second identical query not cached: %s", raw2)
	}
	if id2 := res2.Header.Get("X-Trace-Id"); id2 == hdr {
		t.Error("two requests share one trace ID")
	}
	if n := spanNames(resp2.Trace); n["session.rwr"] != 0 {
		t.Errorf("cache hit ran a session span: %v", n)
	}
}

func TestQueryWithoutDebugHasNoTrace(t *testing.T) {
	s := testServer(t)
	res, raw := postJSON(t, s.Handler(), "/v1/query/rwr", QueryRequest{Node: 5})
	if res.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", res.StatusCode, raw)
	}
	if strings.Contains(string(raw), `"trace"`) {
		t.Errorf("response leaks a trace field without ?debug=1: %s", raw)
	}
	if res.Header.Get("X-Trace-Id") == "" {
		t.Error("X-Trace-Id header must be set even without ?debug=1")
	}
}

func TestBatchDebugTimeline(t *testing.T) {
	s := testServer(t)
	res, raw := postJSON(t, s.Handler(), "/v1/query/batch?debug=1",
		BatchRequest{Kind: "rwr", Nodes: []uint32{4, 5, 6, 7}})
	if res.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", res.StatusCode, raw)
	}
	var resp BatchResponse
	decodeInto(t, raw, &resp)
	if resp.Trace == nil {
		t.Fatal("?debug=1 batch response has no trace timeline")
	}
	names := spanNames(resp.Trace)
	if names["batch.shard"] != resp.ShardGroups {
		t.Errorf("got %d batch.shard spans, want one per shard group (%d); have %v",
			names["batch.shard"], resp.ShardGroups, names)
	}
}

// TestSummarizeDebugTimeline checks the build-pipeline half of the tracing
// acceptance criteria: a traced rebuild exposes per-shard spans with the
// engine phases (shingle, candidate grouping, merge) nested inside.
func TestSummarizeDebugTimeline(t *testing.T) {
	s, err := New(context.Background(), testGraph(), Config{
		Shards:          2,
		PartitionMethod: "random",
		BudgetRatio:     0.5,
		Seed:            7,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Change the budget so every shard's content key changes and both
	// actually rebuild (a no-op request transplants without build spans).
	ratio := 0.45
	res, raw := postJSON(t, s.Handler(), "/v1/summarize?debug=1",
		SummarizeRequest{BudgetRatio: &ratio})
	if res.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", res.StatusCode, raw)
	}
	var resp SummarizeResponse
	decodeInto(t, raw, &resp)
	if resp.Rebuilt != 2 {
		t.Fatalf("rebuilt %d shards, want 2", resp.Rebuilt)
	}
	if resp.Trace == nil {
		t.Fatal("?debug=1 summarize response has no trace timeline")
	}
	names := spanNames(resp.Trace)
	if names["rebuild"] != 1 {
		t.Errorf("want exactly one rebuild span, have %v", names)
	}
	if names["build.shard"] != 2 {
		t.Errorf("want one build.shard span per rebuilt shard, have %v", names)
	}
	for _, phase := range []string{"build.weights", "build.shingle", "build.candidates", "build.merge", "build.finalize"} {
		if names[phase] == 0 {
			t.Errorf("timeline missing build phase %q; have %v", phase, names)
		}
	}
	// Phase spans must nest under a build.shard span (possibly indirectly).
	idx := map[int]string{}
	for i, sp := range resp.Trace.Spans {
		idx[i] = sp.Name
	}
	for _, sp := range resp.Trace.Spans {
		if sp.Name != "build.merge" {
			continue
		}
		p := sp.Parent
		for p >= 0 && idx[p] != "build.shard" {
			p = resp.Trace.Spans[p].Parent
		}
		if p < 0 {
			t.Error("build.merge span has no build.shard ancestor")
		}
	}
}

func TestMetricsPrometheusFormat(t *testing.T) {
	s := testServer(t)
	h := s.Handler()
	// Serve at least one query so counters are non-trivial.
	postJSON(t, h, "/v1/query/rwr", QueryRequest{Node: 8})

	res, raw := do(t, h, httptest.NewRequest("GET", "/metrics?format=prometheus", nil))
	if res.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", res.StatusCode, raw)
	}
	if ct := res.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") || !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("Content-Type %q, want text exposition format 0.0.4", ct)
	}
	body := string(raw)
	for _, want := range []string{
		"# TYPE pegasus_requests_total counter",
		"# TYPE pegasus_request_duration_seconds histogram",
		`pegasus_request_duration_seconds_bucket{le="+Inf"}`,
		"pegasus_request_duration_seconds_sum",
		"pegasus_request_duration_seconds_count",
		`pegasus_endpoint_requests_total{endpoint="query/rwr"}`,
		`pegasus_cache_lookups_total{result="hit"}`,
		`pegasus_shard_queries_total{shard="0"}`,
		"# TYPE pegasus_goroutines gauge",
		"pegasus_generation",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// Every line must parse as a comment or a sample.
	line := regexp.MustCompile(`^(# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* .*|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? (-?[0-9.e+-]+|\+Inf|-Inf|NaN))$`)
	for _, l := range strings.Split(strings.TrimSuffix(body, "\n"), "\n") {
		if !line.MatchString(l) {
			t.Errorf("unparseable exposition line: %q", l)
		}
	}

	// Histogram buckets must be cumulative (non-decreasing counts).
	bucket := regexp.MustCompile(`^pegasus_request_duration_seconds_bucket\{le="[^"]*"\} ([0-9]+)$`)
	last := int64(-1)
	for _, l := range strings.Split(body, "\n") {
		m := bucket.FindStringSubmatch(l)
		if m == nil {
			continue
		}
		var v int64
		if _, err := json.Number(m[1]).Int64(); err == nil {
			n, _ := json.Number(m[1]).Int64()
			v = n
		}
		if v < last {
			t.Errorf("histogram buckets not cumulative at %q", l)
		}
		last = v
	}

	// Unknown formats are rejected, JSON stays the default.
	res, _ = do(t, h, httptest.NewRequest("GET", "/metrics?format=xml", nil))
	if res.StatusCode != http.StatusBadRequest {
		t.Errorf("format=xml got status %d, want 400", res.StatusCode)
	}
}

// TestMetricsJSONShape guards the JSON snapshot's backward compatibility:
// all pre-existing top-level fields survive, and the new runtime section is
// present and plausible.
func TestMetricsJSONShape(t *testing.T) {
	s := testServer(t)
	h := s.Handler()
	postJSON(t, h, "/v1/query/rwr", QueryRequest{Node: 9})
	res, raw := do(t, h, httptest.NewRequest("GET", "/metrics", nil))
	if res.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", res.StatusCode, raw)
	}
	var m map[string]json.RawMessage
	decodeInto(t, raw, &m)
	for _, k := range []string{
		"uptime_seconds", "requests", "errors", "qps", "latency_avg_ms",
		"latency_p50_ms", "latency_p90_ms", "latency_p99_ms", "cache", "batch",
		"rebuild", "endpoints", "shard_queries", "in_flight", "generation",
		"runtime",
	} {
		if _, ok := m[k]; !ok {
			t.Errorf("JSON snapshot missing field %q", k)
		}
	}
	var snap Snapshot
	decodeInto(t, raw, &snap)
	if snap.Runtime.Goroutines < 1 {
		t.Errorf("runtime.goroutines = %d, want >= 1", snap.Runtime.Goroutines)
	}
	if snap.Runtime.HeapAllocBytes == 0 {
		t.Error("runtime.heap_alloc_bytes = 0")
	}
	if snap.Runtime.UptimeSeconds < 0 {
		t.Error("runtime.uptime_seconds negative")
	}
	// The endpoints map keeps its flat name→count shape.
	var eps map[string]uint64
	decodeInto(t, []byte(m["endpoints"]), &eps)
	if eps["query/rwr"] == 0 {
		t.Errorf("endpoints[query/rwr] = 0 after a query; map: %v", eps)
	}
}

func TestSlowlogEndpoint(t *testing.T) {
	// Threshold 1ns: every request is slow, so the log fills immediately.
	s, err := New(context.Background(), testGraph(), Config{
		BudgetRatio:      0.5,
		Seed:             7,
		SlowLogThreshold: time.Nanosecond,
		SlowLogEntries:   4,
	})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	for i := 0; i < 6; i++ {
		postJSON(t, h, "/v1/query/rwr", QueryRequest{Node: uint32(i)})
	}
	res, raw := do(t, h, httptest.NewRequest("GET", "/debug/slowlog", nil))
	if res.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", res.StatusCode, raw)
	}
	var resp SlowLogResponse
	decodeInto(t, raw, &resp)
	if resp.Capacity != 4 {
		t.Errorf("capacity %d, want 4", resp.Capacity)
	}
	if resp.Total < 6 {
		t.Errorf("total %d, want >= 6", resp.Total)
	}
	if len(resp.Entries) != 4 {
		t.Fatalf("retained %d entries, want 4 (ring eviction)", len(resp.Entries))
	}
	e := resp.Entries[0]
	if e.Endpoint != "slowlog" && e.Endpoint != "query/rwr" {
		t.Errorf("unexpected newest endpoint %q", e.Endpoint)
	}
	for _, e := range resp.Entries {
		if e.TraceID == "" || e.Trace == nil {
			t.Errorf("slowlog entry missing trace: %+v", e)
		}
		if e.DurationMs < 0 {
			t.Errorf("negative duration: %+v", e)
		}
	}
}

func TestSlowlogDisabled(t *testing.T) {
	s, err := New(context.Background(), testGraph(), Config{
		BudgetRatio:      0.5,
		Seed:             7,
		SlowLogThreshold: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	postJSON(t, h, "/v1/query/rwr", QueryRequest{Node: 3})
	_, raw := do(t, h, httptest.NewRequest("GET", "/debug/slowlog", nil))
	var resp SlowLogResponse
	decodeInto(t, raw, &resp)
	if resp.Total != 0 || len(resp.Entries) != 0 {
		t.Errorf("negative threshold must disable the log, got total=%d entries=%d", resp.Total, len(resp.Entries))
	}
}

// TestStatusRecorderFlush checks the Flusher passthrough: handlers that
// stream must still reach the underlying connection's Flush through the
// metrics wrapper.
func TestStatusRecorderFlush(t *testing.T) {
	s := testServer(t)
	probe := s.instrument(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		f, ok := w.(http.Flusher)
		if !ok {
			t.Error("wrapped ResponseWriter does not expose http.Flusher")
			return
		}
		w.WriteHeader(http.StatusOK)
		f.Flush()
	}))
	rec := httptest.NewRecorder()
	probe.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if !rec.Flushed {
		t.Error("Flush did not reach the underlying ResponseWriter")
	}
}

// TestStatusRecorderDefaults checks the two statusRecorder fixes: implicit
// 200 when WriteHeader is never called, and first-write-wins status capture.
func TestStatusRecorderDefaults(t *testing.T) {
	rec := &statusRecorder{ResponseWriter: httptest.NewRecorder()}
	if rec.Status() != http.StatusOK {
		t.Errorf("Status() before WriteHeader = %d, want 200", rec.Status())
	}
	rec.WriteHeader(http.StatusTeapot)
	rec.WriteHeader(http.StatusInternalServerError) // superfluous; first wins
	if rec.Status() != http.StatusTeapot {
		t.Errorf("Status() = %d, want the first WriteHeader (418)", rec.Status())
	}
}

func TestDebugHandler(t *testing.T) {
	s := testServer(t)
	h := s.DebugHandler()
	for _, path := range []string{"/debug/runtime", "/debug/slowlog", "/metrics", "/debug/pprof/"} {
		res, raw := do(t, h, httptest.NewRequest("GET", path, nil))
		if res.StatusCode != http.StatusOK {
			t.Errorf("GET %s: status %d: %.120s", path, res.StatusCode, raw)
		}
	}
	var rt obs.RuntimeStats
	_, raw := do(t, h, httptest.NewRequest("GET", "/debug/runtime", nil))
	decodeInto(t, raw, &rt)
	if rt.Goroutines < 1 || rt.HeapAllocBytes == 0 {
		t.Errorf("implausible runtime stats: %+v", rt)
	}
}
