package server

import (
	"context"
	"math"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"pegasus/internal/gen"
)

// TestValidateRejectsNonFinite: NaN defeats plain range checks (NaN < 0 and
// NaN > 1 are both false); before the fix a NaN restart/c/damping/eps
// passed validation, poisoned the power iteration, formatted as "NaN" in
// the cache key, and made the response unencodable. JSON cannot carry NaN
// over HTTP (the decoder rejects it), so the guard is exercised directly —
// these types are also part of the programmatic root API.
func TestValidateRejectsNonFinite(t *testing.T) {
	bad := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	for _, v := range bad {
		for _, p := range []QueryParams{
			{Restart: fp(v)},
			{C: fp(v)},
			{Damping: fp(v)},
			{Eps: fp(v)},
		} {
			if msg := p.validate(); msg == "" {
				t.Errorf("QueryParams %+v with value %v passed validation", p, v)
			}
		}
		if msg := (SummarizeRequest{BudgetRatio: fp(v)}).validate(); msg == "" {
			t.Errorf("SummarizeRequest budget_ratio %v passed validation", v)
		}
		if msg := (SummarizeRequest{Alpha: fp(v)}).validate(); msg == "" {
			t.Errorf("SummarizeRequest alpha %v passed validation", v)
		}
	}
	if msg := (QueryParams{Restart: fp(0.3), Eps: fp(1e-6)}).validate(); msg != "" {
		t.Errorf("valid params rejected: %s", msg)
	}
}

// TestConfigRejectsNonFinite: the same NaN hole existed in ServerConfig.
func TestConfigRejectsNonFinite(t *testing.T) {
	if _, err := (Config{BudgetRatio: math.NaN()}).withDefaults(); err == nil {
		t.Error("NaN BudgetRatio accepted")
	}
	if _, err := (Config{Alpha: math.Inf(1)}).withDefaults(); err == nil {
		t.Error("+Inf Alpha accepted")
	}
	if _, err := (Config{BatchMax: -1}).withDefaults(); err == nil {
		t.Error("negative BatchMax accepted")
	}
}

// TestExplicitZeroParams: an explicit `"restart": 0` used to be silently
// replaced by the default 0.05 (zero-vs-default ambiguity). Pointer
// semantics now reject explicit zeros with a clear 400 naming the default,
// while absent fields and explicitly-spelled defaults share one cache
// entry.
func TestExplicitZeroParams(t *testing.T) {
	s := coldTestServer(t)
	h := s.Handler()

	for _, tc := range []struct{ name, body, wantIn string }{
		{"restart zero", `{"node":1,"restart":0}`, "restart must be in (0,1]"},
		{"c zero", `{"node":1,"c":0}`, "c must be in (0,1]"},
		{"damping zero", `{"node":1,"damping":0}`, "damping must be in (0,1]"},
		{"eps zero", `{"node":1,"eps":0}`, "eps must be a finite positive number"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, raw := do(t, h, httptest.NewRequest("POST", "/v1/query/rwr", strings.NewReader(tc.body)))
			if res.StatusCode != 400 {
				t.Fatalf("status %d, want 400: %s", res.StatusCode, raw)
			}
			if !strings.Contains(string(raw), tc.wantIn) || !strings.Contains(string(raw), "default") {
				t.Errorf("error %s does not explain the (0,1]/default rule", raw)
			}
		})
	}

	// Round-trip: absent params and explicitly-spelled defaults must resolve
	// to the same cache entry (the default-selection rule lives in one
	// place), and null must behave like absent.
	res, raw := do(t, h, httptest.NewRequest("POST", "/v1/query/rwr", strings.NewReader(`{"node":77}`)))
	if res.StatusCode != 200 {
		t.Fatalf("implicit-default query: status %d: %s", res.StatusCode, raw)
	}
	res, raw = do(t, h, httptest.NewRequest("POST", "/v1/query/rwr",
		strings.NewReader(`{"node":77,"restart":0.05,"eps":1e-9,"max_iter":1000}`)))
	if res.StatusCode != 200 {
		t.Fatalf("explicit-default query: status %d: %s", res.StatusCode, raw)
	}
	var resp QueryResponse
	decodeInto(t, raw, &resp)
	if !resp.Cached {
		t.Error("explicitly-spelled defaults did not share the implicit-default cache entry")
	}
	res, raw = do(t, h, httptest.NewRequest("POST", "/v1/query/rwr",
		strings.NewReader(`{"node":77,"restart":null}`)))
	if res.StatusCode != 200 {
		t.Fatalf("null-param query: status %d: %s", res.StatusCode, raw)
	}
	decodeInto(t, raw, &resp)
	if !resp.Cached {
		t.Error("null param did not behave like an absent param")
	}

	// A non-default restart is honored: distinct cache key, distinct answer.
	res, raw = do(t, h, httptest.NewRequest("POST", "/v1/query/rwr",
		strings.NewReader(`{"node":77,"restart":0.5}`)))
	if res.StatusCode != 200 {
		t.Fatalf("explicit restart: status %d: %s", res.StatusCode, raw)
	}
	decodeInto(t, raw, &resp)
	if resp.Cached {
		t.Error("restart 0.5 shared the restart 0.05 cache entry")
	}
}

// TestSummarizeZeroVsDefault: POST /v1/summarize used to claim
// "budget_ratio must be positive" while treating 0 as keep-current. Now an
// absent field keeps the current setting and an explicit 0 is a 400 whose
// message states both rules.
func TestSummarizeZeroVsDefault(t *testing.T) {
	g := gen.PlantedPartition(gen.SBMConfig{Nodes: 100, Communities: 2, AvgDegree: 6, MixingP: 0.1}, 37)
	s, err := New(context.Background(), g, Config{BudgetRatio: 0.6, Seed: 37})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()

	for _, tc := range []struct{ name, body, wantIn string }{
		{"budget zero", `{"budget_ratio":0}`, "keep the current setting"},
		{"budget negative", `{"budget_ratio":-0.5}`, "finite positive"},
		{"alpha zero", `{"alpha":0}`, "alpha must be finite"},
		{"alpha below one", `{"alpha":0.5}`, "alpha must be finite"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, raw := do(t, h, httptest.NewRequest("POST", "/v1/summarize", strings.NewReader(tc.body)))
			if res.StatusCode != 400 {
				t.Fatalf("status %d, want 400: %s", res.StatusCode, raw)
			}
			if !strings.Contains(string(raw), tc.wantIn) {
				t.Errorf("error %s does not mention %q", raw, tc.wantIn)
			}
		})
	}
	// None of the rejections may have triggered a rebuild.
	if gen := s.current().gen; gen != 1 {
		t.Fatalf("generation %d after rejected summarize requests, want 1", gen)
	}

	// Absent fields keep the current settings and still rebuild.
	res, raw := do(t, h, httptest.NewRequest("POST", "/v1/summarize", strings.NewReader(`{}`)))
	if res.StatusCode != 200 {
		t.Fatalf("empty summarize: status %d: %s", res.StatusCode, raw)
	}
	var rep ReportResponse
	decodeInto(t, raw, &rep)
	if rep.Generation != 2 {
		t.Fatalf("generation %d, want 2", rep.Generation)
	}
}

// TestTopKRankingPooled: ranking used to run on the handler goroutine
// outside the bounded worker pool, so cached topk queries re-ranked the
// score vector with unbounded CPU. Now ranking holds a pool slot: with a
// size-1 pool that is busy, a topk query over cached scores must wait (and
// time out), and once the pool frees it must answer; the ranked answer
// itself is then cached, so a repeat does not re-rank at all.
func TestTopKRankingPooled(t *testing.T) {
	g := gen.PlantedPartition(gen.SBMConfig{Nodes: 120, Communities: 2, AvgDegree: 6, MixingP: 0.1}, 43)
	s, err := New(context.Background(), g, Config{BudgetRatio: 0.6, Seed: 43, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()

	// Warm the underlying RWR score vector (uses the only pool slot, then
	// releases it).
	res, raw := postJSON(t, h, "/v1/query/rwr", QueryRequest{Node: 5})
	if res.StatusCode != 200 {
		t.Fatalf("warm rwr: status %d: %s", res.StatusCode, raw)
	}

	// Occupy the single pool slot.
	release := make(chan struct{})
	occupied := make(chan struct{})
	go func() {
		_ = s.pool.Run(context.Background(), func() error {
			close(occupied)
			<-release
			return nil
		})
	}()
	<-occupied

	// The scores are cached, so the only pool-bound work left is ranking —
	// which must block on the busy pool until the short request deadline.
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	req := httptest.NewRequest("POST", "/v1/query/topk",
		strings.NewReader(`{"node":5,"k":3}`)).WithContext(ctx)
	res, raw = do(t, h, req)
	if res.StatusCode != 504 {
		t.Fatalf("topk with saturated pool: status %d, want 504 (ranking must be pool-bounded): %s",
			res.StatusCode, raw)
	}

	close(release)
	res, raw = postJSON(t, h, "/v1/query/topk", QueryRequest{Node: 5, QueryParams: QueryParams{K: 3}})
	if res.StatusCode != 200 {
		t.Fatalf("topk after pool freed: status %d: %s", res.StatusCode, raw)
	}
	var first QueryResponse
	decodeInto(t, raw, &first)
	if len(first.Top) != 3 {
		t.Fatalf("%d top entries, want 3", len(first.Top))
	}

	// Repeat: the ranked answer is cached — no third ranking pass.
	res, raw = postJSON(t, h, "/v1/query/topk", QueryRequest{Node: 5, QueryParams: QueryParams{K: 3}})
	if res.StatusCode != 200 {
		t.Fatalf("repeat topk: status %d: %s", res.StatusCode, raw)
	}
	var second QueryResponse
	decodeInto(t, raw, &second)
	if !second.Cached {
		t.Error("repeated identical topk was not served from the ranked-answer cache")
	}
	// Different k is a different ranked answer, not a hit.
	res, raw = postJSON(t, h, "/v1/query/topk", QueryRequest{Node: 5, QueryParams: QueryParams{K: 7}})
	if res.StatusCode != 200 {
		t.Fatalf("k=7 topk: status %d: %s", res.StatusCode, raw)
	}
	var third QueryResponse
	decodeInto(t, raw, &third)
	if third.Cached {
		t.Error("k=7 answer claimed a cache hit against the k=3 entry")
	}
	if len(third.Top) != 7 {
		t.Fatalf("%d top entries, want 7", len(third.Top))
	}
}
