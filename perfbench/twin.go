package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"

	"pegasus"
)

// smapeNodes is the number of query nodes rwr_smape averages over on the
// serving workloads: a fixed sample (seeded by smapeSeed), so the metric
// moves only when the served answers do.
const (
	smapeNodes = 50
	smapeSeed  = 1
)

// artifact is the in-process twin of a serving configuration's cluster.
type artifact struct {
	g      *pegasus.Graph
	cfg    pegasus.ServerConfig
	c      *pegasus.Cluster
	labels []uint32
	stats  []pegasus.IterStats // engine counts of one from-scratch build
	rng    *rand.Rand
	first  [][]byte  // encoded shards of the first build
	times  []float64 // build seconds, net of steal
	raw    []float64 // build seconds, as measured
	differ int       // builds whose bytes differ from the first
}

// newArtifact returns the in-process twin of cfg's cluster; its builds run
// in serve-uniform's idle windows.
func newArtifact(g *pegasus.Graph, cfg pegasus.ServerConfig, rng *rand.Rand) (*artifact, error) {
	labels, err := pegasus.PartitionGraph(g, cfg.Shards, pegasus.PartitionRandom, cfg.Seed)
	if err != nil {
		return nil, err
	}
	return &artifact{g: g, cfg: cfg, labels: labels, rng: rng}, nil
}

// quality sets personalized_error (the Eq. (1) error of each shard of the
// first build against its own target set, mean over shards) and rwr_smape
// (served-path RWR against exact graph RWR; the served answers are checked
// bit-identical to this cluster's).
func (a *artifact) quality(r *run) error {
	g, cfg := a.g, a.cfg
	pe := 0.0
	for i, ts := range shardTargets(a.labels, cfg.Shards, cfg.Targets) {
		w, err := pegasus.NewWeights(g, ts, cfg.Alpha)
		if err != nil {
			return err
		}
		pe += pegasus.PersonalizedError(g, a.c.Machines[i].Summary, w)
	}
	r.setE2E("personalized_error", pe/float64(cfg.Shards), "error")
	qs := sampleNodes(rand.New(rand.NewSource(smapeSeed)), g.NumNodes(), smapeNodes)
	approx, _, err := querySweep(a.session, qs, pegasus.RWRConfig{})
	if err != nil {
		return err
	}
	smape, err := rwrSMAPE(g, qs, approx)
	if err != nil {
		return err
	}
	r.setE2E("rwr_smape", smape, "smape")
	return nil
}

// finish sets build_s from every window's builds and checks their bytes.
func (a *artifact) finish(r *run) {
	n := len(a.times)
	r.check("cluster_same_bytes", a.differ == 0, "%d of %d cluster builds differ from the first", a.differ, n)
	r.setE2E("build_s", median(a.times), "s")
	r.note("build_s is the median of %d in-process builds of the serving cluster (summarize + encode every shard) in %d windows, each window net of its steal; measured median %.4f s",
		n, len(a.times)/windowBuilds, median(a.raw))
}

// builds runs n timed from-scratch builds, keeping the first cluster and
// checking every build's bytes against it. The heap is collected before
// each build: the server's cache fills the heap to a level that differs from
// run to run, and whether a collection of it falls inside a build would
// otherwise decide the build's time.
func (a *artifact) builds(ctx context.Context, r *run, n int) error {
	g, cfg := a.g, a.cfg
	var times []float64
	t0 := readTicks()
	for i := 0; i < n; i++ {
		runtime.GC()
		var mu sync.Mutex
		var stats []pegasus.IterStats
		start := time.Now()
		c, err := buildTwin(ctx, g, cfg, nil, func(s pegasus.IterStats) {
			mu.Lock()
			stats = append(stats, s)
			mu.Unlock()
		})
		if err != nil {
			return err
		}
		enc := make([][]byte, len(c.Machines))
		for k, m := range c.Machines {
			var buf bytes.Buffer
			if err := pegasus.EncodeArtifact(&buf, pegasus.Artifact{Summary: m.Summary}); err != nil {
				return fmt.Errorf("encode shard %d: %w", k, err)
			}
			enc[k] = buf.Bytes()
		}
		times = append(times, time.Since(start).Seconds())
		r.count(1, 0)
		if a.first == nil {
			a.first, a.c, a.stats = enc, c, stats
			continue
		}
		for k := range enc {
			if !bytes.Equal(enc[k], a.first[k]) {
				a.differ++
				break
			}
		}
	}
	a.raw = append(a.raw, times...)
	a.times = append(a.times, scaled(times, 1-stolenShare(t0, readTicks()))...)
	return nil
}

// session returns a fresh query session on the machine that owns q, as the
// server opens one per request.
func (a *artifact) session(q pegasus.NodeID) pegasus.QuerySession {
	m, _ := a.c.RouteMachine(q) // q < |V|: routing cannot fail
	return m.NewSession()
}

// buildTwin builds, in process and through the public API, the cluster a
// server configured with cfg serves: same partition, budget, personalization
// and seed. prev, when non-nil, is reused the way the server reuses its
// previous backend; trace, when non-nil, receives the engine's per-iteration
// counts.
func buildTwin(ctx context.Context, g *pegasus.Graph, cfg pegasus.ServerConfig, prev *pegasus.Cluster, trace func(pegasus.IterStats)) (*pegasus.Cluster, error) {
	labels, err := pegasus.PartitionGraph(g, cfg.Shards, pegasus.PartitionRandom, cfg.Seed)
	if err != nil {
		return nil, err
	}
	c, _, err := pegasus.BuildSummaryClusterIncremental(ctx, g, labels, cfg.Shards, cfg.BudgetRatio*g.SizeBits(),
		pegasus.Config{Alpha: cfg.Alpha, Seed: cfg.Seed, Trace: trace},
		pegasus.ClusterBuildOptions{Targets: cfg.Targets, Prev: prev})
	if err != nil {
		return nil, fmt.Errorf("twin cluster: %w", err)
	}
	return c, nil
}

// oracle answers queries exactly as the serving layer does, from a twin
// cluster through fresh Machine sessions. memo holds computed score vectors
// by machine, kind and node; machines transplanted between twins share
// entries.
type oracle struct {
	c    *pegasus.Cluster
	memo map[string][]float64
}

func (o oracle) scores(kind string, q uint32) ([]float64, error) {
	m, err := o.c.RouteMachine(pegasus.NodeID(q))
	if err != nil {
		return nil, err
	}
	key := fmt.Sprintf("%p|%s|%d", m, kind, q)
	if s, ok := o.memo[key]; ok {
		return s, nil
	}
	var s []float64
	if kind == "php" {
		s, err = m.NewSession().PHP(pegasus.NodeID(q), pegasus.PHPConfig{})
	} else {
		s, err = m.NewSession().RWR(pegasus.NodeID(q), pegasus.RWRConfig{})
	}
	if err == nil {
		o.memo[key] = s
	}
	return s, err
}

// compare checks one served answer against the oracle bit for bit.
func (o oracle) compare(kind string, q uint32, shard int, scores []float64, dist []int32, top []struct {
	Node  uint32
	Score float64
}) error {
	if want := o.c.Assign[q]; int(want) != shard {
		return fmt.Errorf("node %d served by shard %d, routing table says %d", q, shard, want)
	}
	switch kind {
	case "hop":
		m, err := o.c.RouteMachine(pegasus.NodeID(q))
		if err != nil {
			return err
		}
		want, err := m.HOP(pegasus.NodeID(q))
		if err != nil {
			return err
		}
		if len(want) != len(dist) {
			return fmt.Errorf("hop %d: %d distances, want %d", q, len(dist), len(want))
		}
		for i := range want {
			if want[i] != dist[i] {
				return fmt.Errorf("hop %d: dist[%d] = %d, want %d", q, i, dist[i], want[i])
			}
		}
		return nil
	case "topk":
		s, err := o.scores("rwr", q)
		if err != nil {
			return err
		}
		ids := pegasus.TopK(s, 10)
		if len(ids) != len(top) {
			return fmt.Errorf("topk %d: %d entries, want %d", q, len(top), len(ids))
		}
		for i, id := range ids {
			if top[i].Node != uint32(id) || top[i].Score != s[id] {
				return fmt.Errorf("topk %d: entry %d = (%d, %v), want (%d, %v)", q, i, top[i].Node, top[i].Score, id, s[id])
			}
		}
		return nil
	default:
		want, err := o.scores(kind, q)
		if err != nil {
			return err
		}
		if len(want) != len(scores) {
			return fmt.Errorf("%s %d: %d scores, want %d", kind, q, len(scores), len(want))
		}
		for i := range want {
			if want[i] != scores[i] {
				return fmt.Errorf("%s %d: score[%d] = %v, want %v", kind, q, i, scores[i], want[i])
			}
		}
		return nil
	}
}

// answer is the part of a single-query or batch-item response the check
// reads.
type answer struct {
	Node   uint32    `json:"node"`
	Shard  int       `json:"shard"`
	Error  string    `json:"error"`
	Scores []float64 `json:"scores"`
	Dist   []int32   `json:"dist"`
	Top    []struct {
		Node  uint32
		Score float64
	} `json:"top"`
}

// verify compares every kept response against a twin cluster built for the
// generation that served it. genTargets maps generations to their target
// sets; nil means the configuration never changes.
func (s *serveSession) verify(ctx context.Context, r *run, phases []*phase, genTargets map[uint64][]pegasus.NodeID) error {
	g := s.t.srv.Graph()
	twins := map[uint64]*pegasus.Cluster{}
	gens := []uint64{1}
	if genTargets != nil {
		gens = gens[:0]
		for gen := range genTargets {
			gens = append(gens, gen)
		}
		sort.Slice(gens, func(a, b int) bool { return gens[a] < gens[b] })
	}
	// prevOf[gen] is the twin of the generation before gen: a shard whose
	// machine both share was transplanted, not rebuilt.
	prevOf := map[uint64]*pegasus.Cluster{}
	var prev *pegasus.Cluster
	for _, gen := range gens {
		cfg := s.cfg
		if genTargets != nil {
			cfg.Targets = genTargets[gen]
		}
		c, err := buildTwin(ctx, g, cfg, prev, nil)
		if err != nil {
			return err
		}
		twins[gen], prevOf[gen], prev = c, prev, c
	}

	memo := map[string][]float64{}
	compared, wrong, reusedAfterRebuild := 0, 0, 0
	var firstErr error
	fail := func(err error) {
		wrong++
		if firstErr == nil {
			firstErr = err
		}
	}
	for _, p := range phases {
		for i := range p.jobs {
			j, o := &p.jobs[i], &p.out[i]
			if !j.keep || !o.ok() {
				continue
			}
			var env struct {
				Generation uint64   `json:"generation"`
				Items      []answer `json:"items"`
				answer
			}
			if err := json.Unmarshal(o.body, &env); err != nil {
				fail(fmt.Errorf("decode %s response: %w", j.path, err))
				continue
			}
			c, ok := twins[env.Generation]
			if !ok {
				fail(fmt.Errorf("%s answered from unknown generation %d", j.path, env.Generation))
				continue
			}
			kind, items := j.kind, []answer{env.answer}
			if j.kind == "batch" {
				kind, items = j.batchKind, env.Items
				if len(items) != len(j.nodes) {
					fail(fmt.Errorf("batch: %d items for %d nodes", len(items), len(j.nodes)))
					continue
				}
			}
			for k, it := range items {
				compared++
				if it.Node != j.nodes[k] || it.Error != "" {
					fail(fmt.Errorf("%s item %d: node %d error %q", j.path, k, it.Node, it.Error))
					continue
				}
				if err := (oracle{c, memo}).compare(kind, it.Node, it.Shard, it.Scores, it.Dist, it.Top); err != nil {
					fail(err)
					continue
				}
				if p := prevOf[env.Generation]; p != nil && p.Machines[it.Shard] == c.Machines[it.Shard] {
					reusedAfterRebuild++
				}
			}
		}
	}
	r.count(0, int64(wrong))
	detail := fmt.Sprintf("%d served answers bit-identical to the in-process cluster", compared-wrong)
	if firstErr != nil {
		detail = fmt.Sprintf("%d of %d answers differ; first: %v", wrong, compared, firstErr)
	}
	r.check("served_answers", wrong == 0 && compared > 0, "%s", detail)
	if genTargets != nil {
		r.check("served_answers_unchanged_shard", reusedAfterRebuild > 0,
			"%d of them served by a shard a rebuild left unchanged, over %d generations", reusedAfterRebuild, len(gens))
	}
	return nil
}
