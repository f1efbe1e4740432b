// Command perfbench is the repository benchmark: it builds its inputs from a
// seed, drives one workload through the public pegasus API (library calls
// for the build path, a loopback HTTP server for the serving path), checks
// every output it measures, and prints the end-to-end metrics (--trace 0) or
// the per-layer metrics with the attribution report (--trace 1). The last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {name: {"value": v, "unit": u}}}
//
// Run it through run.sh from the repository root, which builds it first:
//
//	bash perfbench/run.sh --workload build --seed 1 --seconds 20 --trace 0
//
// See README.md in this directory for the workloads, the metrics and which
// end-to-end metric each per-layer metric is expected to move.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"time"
)

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(ctx context.Context, r *run) error{
	"build":         runBuild,
	"serve-uniform": runServeUniform,
}

func main() {
	var (
		workload = flag.String("workload", "", "workload: build | serve-uniform")
		seed     = flag.Int64("seed", 1, "input seed: the same seed generates the same inputs")
		seconds  = flag.Int("seconds", 20, "measurement time in seconds")
		trace    = flag.Int("trace", 0, "0 prints end-to-end metrics; 1 runs the traced pass and prints per-layer metrics")
	)
	flag.Parse()
	drive, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (build or serve-uniform), --seconds >= 1 and --trace 0|1\n")
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	r := newRun(*workload, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err := drive(ctx, r); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	if !r.emit(os.Stdout) {
		os.Exit(1)
	}
}

// warmSetups is the number of untimed set-ups (ingests or server boots) a
// workload runs before the timed ones. The first set-ups of a process touch
// its memory for the first time, and on the reference host they take up to
// twice as long as the rest; with them in the sample, the median of the
// timed set-ups would flip between the two.
const warmSetups = 2

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run collects what one benchmark invocation measured and checked.
type run struct {
	workload string
	seed     int64
	seconds  time.Duration
	traced   bool

	e2e     map[string]metric
	layers  map[string]metric
	notes   []string
	checks  []check
	attempt int64
	failed  int64
}

// check is one output check; a failed check fails the run.
type check struct {
	name   string
	ok     bool
	detail string
}

func newRun(workload string, seed int64, seconds time.Duration, traced bool) *run {
	return &run{workload: workload, seed: seed, seconds: seconds, traced: traced,
		e2e: map[string]metric{}, layers: map[string]metric{}}
}

func (r *run) setE2E(name string, v float64, unit string)   { r.e2e[name] = metric{v, unit} }
func (r *run) setLayer(name string, v float64, unit string) { r.layers[name] = metric{v, unit} }

// setTime sets a time metric net of hypervisor steal: the measured value
// times one minus the share of wanted CPU time the hypervisor gave to other
// machines over the interval the value covers (0 on bare metal). The
// measured value and the share are printed as a note.
func (r *run) setTime(name string, measured, stolen float64, unit string) {
	r.setE2E(name, measured*(1-stolen), unit)
	r.note("%s: %.4f %s measured, %.3f of wanted CPU time stolen", name, measured, unit, stolen)
}

func (r *run) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// check records an output check. Failed checks also count as failed
// operations, so they show in the reported failure count.
func (r *run) check(name string, ok bool, format string, args ...any) bool {
	r.checks = append(r.checks, check{name: name, ok: ok, detail: fmt.Sprintf(format, args...)})
	if !ok {
		r.failed++
	}
	return ok
}

// count records attempted operations and how many of them failed.
func (r *run) count(attempted, failed int64) {
	r.attempt += attempted
	r.failed += failed
}

// emit prints the human-readable report followed by the JSON result line
// and reports whether every check passed.
func (r *run) emit(w *os.File) bool {
	correct := true
	for _, c := range r.checks {
		if !c.ok {
			correct = false
		}
	}
	mode := "end-to-end"
	ms := r.e2e
	if r.traced {
		mode = "per-layer"
		ms = r.layers
	}
	fmt.Fprintf(w, "perfbench workload=%s seed=%d seconds=%.0f mode=%s\n", r.workload, r.seed, r.seconds.Seconds(), mode)
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-36s %14.4f %s\n", n, ms[n].Value, ms[n].Unit)
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	for _, c := range r.checks {
		status := "ok  "
		if !c.ok {
			status = "FAIL"
		}
		fmt.Fprintf(w, "  check %s %-28s %s\n", status, c.name, c.detail)
	}
	attempted := r.attempt
	if attempted < 1 {
		attempted = 1
	}
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, attempted, r.failed, ms})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encode result: %v\n", err)
		return false
	}
	fmt.Fprintln(w, string(out))
	return correct
}

// noteTail prints the tail latency of lat (net of steal): the highest
// percentile, capped at p99, with at least ten samples beyond it. It is
// reported, not gated: its run-to-run spread on the reference host is about
// a fifth of its median, too close to the largest bound a gated metric may
// have.
func (r *run) noteTail(lat []float64, what string) {
	tq := tailQuantile(len(lat))
	r.note("query_p99_ms (reported, not gated): %.4f ms, p%.2f of %d %s",
		quantile(lat, tq), 100*tq, len(lat), what)
}

// okRatio is the share of attempted operations that succeeded with a correct
// answer (1 - fail ratio). It is reported instead of the fail ratio because
// an end-to-end metric must never read 0.
func (r *run) okRatio() float64 {
	if r.attempt == 0 {
		return 0
	}
	return float64(r.attempt-r.failed) / float64(r.attempt)
}

// finishE2E adds the metrics every workload reports.
func (r *run) finishE2E() {
	r.setE2E("peak_rss_mb", peakRSSMB(), "MB")
	r.setE2E("ok_ratio", r.okRatio(), "ratio")
	r.note("attempted=%d failed=%d fail_ratio=%.6f", r.attempt, r.failed, 1-r.okRatio())
}
