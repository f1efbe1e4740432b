package main

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"pegasus"
)

// inf stands for the latency of a failed request: it misses every limit.
var inf = math.Inf(1)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi || math.IsInf(s[hi], 1) {
		return s[hi]
	}
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// tailQuantile is the highest quantile, capped at 0.99, that leaves at least
// ten samples beyond it in a sample of n; below 20 samples it is the median.
func tailQuantile(n int) float64 {
	q := 1 - 10/float64(n)
	if n < 20 {
		q = 0.5
	}
	return math.Min(q, 0.99)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// peakRSSMB is the process's peak resident set (VmHWM) in MB. It is read
// while the run's data is still referenced, so it covers the live artifact.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Sys) / (1 << 20)
}

// snapGzip renders g as a gzip-compressed SNAP edge list, the input format
// the ingest layer parses.
func snapGzip(g *pegasus.Graph) (gz []byte, plainBytes int, err error) {
	var plain bytes.Buffer
	if err := pegasus.WriteSNAP(&plain, g); err != nil {
		return nil, 0, fmt.Errorf("write SNAP: %w", err)
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(plain.Bytes()); err != nil {
		return nil, 0, fmt.Errorf("gzip: %w", err)
	}
	if err := zw.Close(); err != nil {
		return nil, 0, fmt.Errorf("gzip: %w", err)
	}
	return buf.Bytes(), plain.Len(), nil
}

// ingest parses SNAP bytes and checks the result against the source graph's
// fingerprint.
func ingest(r *run, data []byte, want string) (*pegasus.Graph, time.Duration, error) {
	t0 := time.Now()
	res, err := pegasus.IngestEdgeListBytes(data, pegasus.IngestOptions{})
	d := time.Since(t0)
	if err != nil {
		return nil, 0, fmt.Errorf("ingest: %w", err)
	}
	got := pegasus.GraphFingerprint(res.Graph)
	if got != want {
		r.check("ingest_fingerprint", false, "ingested %s, source %s", got, want)
	}
	return res.Graph, d, nil
}

// sampleNodes draws k distinct nodes of [0, n) (all of them when k >= n),
// in draw order.
func sampleNodes(rng *rand.Rand, n, k int) []pegasus.NodeID {
	if k > n {
		k = n
	}
	out := make([]pegasus.NodeID, 0, k)
	for _, i := range rng.Perm(n)[:k] {
		out = append(out, pegasus.NodeID(i))
	}
	return out
}

// memDelta measures allocation and GC pause totals over a phase.
type memDelta struct{ start runtime.MemStats }

func startMem() *memDelta {
	m := &memDelta{}
	runtime.ReadMemStats(&m.start)
	return m
}

// end returns the MB allocated and the GC pause time in ms since start.
func (m *memDelta) end() (allocMB, pauseMs float64) {
	var now runtime.MemStats
	runtime.ReadMemStats(&now)
	return float64(now.TotalAlloc-m.start.TotalAlloc) / (1 << 20),
		float64(now.PauseTotalNs-m.start.PauseTotalNs) / 1e6
}

// selfTimes returns the summed self time in ms per span name. A span's self
// time is its duration minus the union of the intervals of the spans nested
// in it: its descendants, plus siblings that ran inside its interval (the
// engine opens build.shingle as a sibling of the build.candidates span that
// calls it). Spans of parallel shard builds hang under different build.shard
// parents and so never subtract from each other.
func selfTimes(spans []pegasus.SpanView) map[string]float64 {
	anc := func(j, i int) bool { // i is an ancestor of j
		for p := spans[j].Parent; p >= 0; p = spans[p].Parent {
			if p == i {
				return true
			}
		}
		return false
	}
	out := map[string]float64{}
	for i, s := range spans {
		lo, hi := s.StartUs, s.StartUs+s.DurationUs
		var iv [][2]int64
		for j, c := range spans {
			if j == i {
				continue
			}
			clo, chi := c.StartUs, c.StartUs+c.DurationUs
			if clo < lo || chi > hi || (clo == lo && chi == hi && j < i) {
				continue
			}
			if anc(j, i) || (c.Parent == s.Parent && !anc(i, j)) {
				iv = append(iv, [2]int64{clo, chi})
			}
		}
		out[s.Name] += float64(s.DurationUs-covered(iv)) / 1000
	}
	return out
}

// covered is the total length of the union of intervals.
func covered(iv [][2]int64) int64 {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, curLo, curHi int64
	open := false
	for _, x := range iv {
		if !open || x[0] > curHi {
			if open {
				total += curHi - curLo
			}
			curLo, curHi, open = x[0], x[1], true
		} else if x[1] > curHi {
			curHi = x[1]
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// cpuTicks are the machine-wide CPU counters of /proc/stat: time spent
// running (user, nice, system, irq, softirq) and time a virtual CPU was
// ready to run but the hypervisor ran something else (steal).
type cpuTicks struct{ busy, steal float64 }

// readTicks reads the counters; on systems without /proc/stat it returns
// zeros, which make stolenShare 0.
func readTicks() cpuTicks {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTicks{}
	}
	v := make([]float64, 8)
	for i := range v {
		v[i], _ = strconv.ParseFloat(f[i+1], 64)
	}
	return cpuTicks{busy: v[0] + v[1] + v[2] + v[5] + v[6], steal: v[7]}
}

// scaled returns xs times f.
func scaled(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

// stolenShare is the share of the CPU time wanted between a and b that the
// hypervisor gave to other machines.
func stolenShare(a, b cpuTicks) float64 {
	ds, db := b.steal-a.steal, b.busy-a.busy
	if ds <= 0 || ds+db <= 0 {
		return 0
	}
	return ds / (ds + db)
}
