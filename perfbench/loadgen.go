package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"
)

// conns is the client's connection budget: one process, at most nproc (2 on
// the reference host) connections, so the server sees realistic keep-alive
// reuse instead of a connection per request.
const conns = 2

// requestTimeout bounds one request on the client side; a request that
// outlives it counts as failed.
const requestTimeout = 30 * time.Second

// job is one scheduled request of an open-loop phase.
type job struct {
	due   time.Duration // offset from the phase start
	path  string
	body  []byte
	kind  string   // query kind, or "batch"
	nodes []uint32 // query node(s); batch kind in batchKind
	// batchKind is the query kind of a batch request.
	batchKind string
	debug     bool // ask for the span timeline (?debug=1)
	keep      bool // keep the response body for verification
}

// outcome is what happened to one job.
type outcome struct {
	sent    bool
	latency time.Duration // completion minus due time
	service time.Duration // completion minus send time
	status  int
	err     error
	bytes   int
	body    []byte
}

func (o *outcome) ok() bool { return o.sent && o.err == nil && o.status == http.StatusOK }

// phase is the result of one open-loop phase.
type phase struct {
	jobs    []job
	out     []outcome
	lag     []float64 // generator lag per job, ms
	dropped int       // jobs still queued when the drain deadline passed
	stolen  float64   // share of wanted CPU time the hypervisor took
}

// runPhase drives jobs open-loop: a dispatcher releases each job at its due
// time and conns senders carry them over keep-alive connections. Latency is
// taken from the due time, so a stall delays (and is charged to) every
// request queued behind it. Jobs not started by d+drain are dropped and
// reported as backlog.
func runPhase(ctx context.Context, client *http.Client, base string, jobs []job, d, drain time.Duration) *phase {
	p := &phase{jobs: jobs, out: make([]outcome, len(jobs)), lag: make([]float64, len(jobs))}
	work := make(chan int, len(jobs)) // sized to the number of sends: the dispatcher never blocks
	t0 := readTicks()
	start := time.Now()
	deadline := start.Add(d + drain)
	var wg sync.WaitGroup
	var mu sync.Mutex
	wg.Add(conns)
	for c := 0; c < conns; c++ {
		go func() {
			defer wg.Done()
			for i := range work {
				if ctx.Err() != nil || time.Now().After(deadline) {
					mu.Lock()
					p.dropped++
					mu.Unlock()
					continue
				}
				p.out[i] = send(ctx, client, base, &jobs[i], start)
			}
		}()
	}
	for i := range jobs {
		due := start.Add(jobs[i].due)
		if wait := time.Until(due); wait > 0 {
			select {
			case <-time.After(wait):
			case <-ctx.Done():
			}
		}
		p.lag[i] = ms(time.Since(due))
		work <- i
	}
	close(work)
	wg.Wait()
	p.stolen = stolenShare(t0, readTicks())
	return p
}

func send(ctx context.Context, client *http.Client, base string, j *job, start time.Time) outcome {
	url := base + j.path
	if j.debug {
		url += "?debug=1"
	}
	rctx, cancel := context.WithTimeout(ctx, requestTimeout)
	defer cancel()
	o := outcome{sent: true}
	req, err := http.NewRequestWithContext(rctx, http.MethodPost, url, bytes.NewReader(j.body))
	if err != nil {
		o.err = err
		return o
	}
	req.Header.Set("Content-Type", "application/json")
	t0 := time.Now()
	resp, err := client.Do(req)
	if err == nil {
		o.status = resp.StatusCode
		if j.keep || j.debug || resp.StatusCode != http.StatusOK {
			o.body, err = io.ReadAll(resp.Body)
			o.bytes = len(o.body)
		} else {
			var n int64
			n, err = io.Copy(io.Discard, resp.Body)
			o.bytes = int(n)
		}
		resp.Body.Close()
	}
	done := time.Now()
	o.err = err
	o.service = done.Sub(t0)
	o.latency = done.Sub(start.Add(j.due))
	if err == nil && o.status != http.StatusOK {
		o.err = fmt.Errorf("status %d: %s", o.status, bytes.TrimSpace(o.body))
	}
	return o
}

// newClient returns the load generator's HTTP client: at most conns
// connections, no proxy, no transparent compression.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
}

// queryLatencies returns the due-time latencies (ms) of the phase's jobs,
// with failed or dropped jobs at +Inf so they miss any limit.
func (p *phase) queryLatencies() (lat []float64, failed int) {
	for i := range p.jobs {
		o := &p.out[i]
		if o.ok() {
			lat = append(lat, ms(o.latency))
		} else {
			lat = append(lat, inf)
			failed++
		}
	}
	return lat, failed
}
