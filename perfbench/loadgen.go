package main

import (
	"math"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"time"

	"k2/internal/experiment"
	"k2/internal/server"
)

// Traffic shape of the service workload. Each fresh job is resubmitted
// once when the client sees it done, so with hitsPerFresh = 8 about 80% of
// all submissions read the hot set, 10% are fresh jobs and 10% follow-ups.
// A 36 s run makes 260 fresh jobs: enough to fill each worker's result
// cache past its default 128 entries, so the run exercises LRU eviction,
// and few enough that both workers' leaked heaps stay near 4 GB together.
const (
	freshPerSec  = 7.2
	hitsPerFresh = 8
)

// tenants spread the load so each stays under the router's default quota
// of 50 jobs/s: about 16/s each at the rates above, and 24/s for the first,
// which also sends the follow-ups.
var tenants = []string{"tenant-a", "tenant-b", "tenant-c", "tenant-d"}

// freshShapes are the job shapes that simulate: each fresh arrival gets
// one of them with a seed no other arrival uses.
var freshShapes = []server.Request{
	{Experiment: "faults"},
	{Experiment: "chaos", Sweep: 1, WeakDomains: 2},
	{Experiment: "chaos", Sweep: 1, WeakDomains: 4},
	{Experiment: "chaos", Sweep: 1, WeakDomains: 8},
}

// hotSet is the 24 default registry keys; their tables are the golden's.
func hotSet() []server.Request {
	var out []server.Request
	for _, d := range experiment.Registry() {
		out = append(out, server.Request{Experiment: d.ID})
	}
	return out
}

// Arrival is one scheduled submission of the open-loop load.
type Arrival struct {
	Due    time.Duration // offset from the start of the load
	Tenant string
	Req    server.Request
	Fresh  bool
}

// schedule builds the service workload's arrivals from its seed alone.
// Arrival times are a Poisson process conditioned on its count: the count
// is fixed by the rates and the duration, so every seed simulates the same
// number of fresh jobs, and the times are uniform order statistics. Fresh
// arrivals are spread evenly over freshShapes.
func schedule(seed int64, seconds float64) []Arrival {
	rng := rand.New(rand.NewSource(seed))
	nFresh := int(math.Ceil(freshPerSec * seconds))
	n := nFresh * (1 + hitsPerFresh)
	dues := make([]time.Duration, n)
	for i := range dues {
		dues[i] = time.Duration(rng.Float64() * seconds * float64(time.Second))
	}
	sort.Slice(dues, func(i, k int) bool { return dues[i] < dues[k] })
	kind := rng.Perm(n)       // arrival i is fresh when kind[i] < nFresh
	shape := rng.Perm(nFresh) // fresh job k gets shape shape[k] % len(freshShapes)
	hot := hotSet()
	used := map[int64]bool{}
	out := make([]Arrival, n)
	k := 0
	for i := range out {
		a := Arrival{Due: dues[i], Tenant: tenants[rng.Intn(len(tenants))]}
		if kind[i] < nFresh {
			a.Fresh = true
			a.Req = freshShapes[shape[k]%len(freshShapes)]
			k++
			// Seeds 1 and above 1<<40 are reserved: 1 is the hot set's
			// default seed and the set-up warm-up jobs use the others.
			for a.Req.Seed == 0 || used[a.Req.Seed] {
				a.Req.Seed = 2 + rng.Int63n(1<<40)
			}
			used[a.Req.Seed] = true
		} else {
			a.Req = hot[rng.Intn(len(hot))]
		}
		out[i] = a
	}
	return out
}

// drive runs the open loop: arrival i fires at start+arrivals[i].Due on a
// goroutine of its own, whether or not earlier ones have finished, and
// fire receives that due time so latency counts any delay the generator
// itself adds. At most maxInflight fires run at once; a generator held up
// by that bound, or by anything else, shows up in the returned lags (fire
// time minus due time). stall, when non-nil, runs before each arrival is
// fired; tests use it to inject a generator stall.
func drive(start time.Time, arrivals []Arrival, maxInflight int, stall func(i int),
	fire func(i int, due time.Time)) []time.Duration {
	lags := make([]time.Duration, len(arrivals))
	sem := make(chan struct{}, maxInflight)
	var wg sync.WaitGroup
	for i, a := range arrivals {
		due := start.Add(a.Due)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		if stall != nil {
			stall(i)
		}
		sem <- struct{}{}
		lags[i] = time.Since(due)
		wg.Add(1)
		go func(i int, due time.Time) {
			defer wg.Done()
			defer func() { <-sem }()
			fire(i, due)
		}(i, due)
	}
	wg.Wait()
	return lags
}

// newLoadClient returns the load generator's HTTP client: it never holds
// more than conns connections to a host, so the generator uses no more
// connections than it has worker threads.
func newLoadClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			MaxIdleConns:        conns,
			IdleConnTimeout:     90 * time.Second,
		},
	}
}
