package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"k2/internal/experiment"
)

// TestMain lets the test binary stand in for a pass process (runPass
// starts its own executable): with PERFBENCH_TEST_PASS=die it reports one
// experiment and then panics on a goroutine of its own, as a storm that
// panics on an inner worker pool does.
func TestMain(m *testing.M) {
	if os.Getenv("PERFBENCH_TEST_PASS") == "die" {
		json.NewEncoder(os.Stdout).Encode(expReport{ID: registryIDs["long-episodes"][0]}) //nolint:errcheck
		go func() { panic("storm worker failed") }()
		select {}
	}
	os.Exit(m.Run())
}

func TestDeadPassCountsAsFailed(t *testing.T) {
	t.Setenv("PERFBENCH_TEST_PASS", "die")
	cfg := config{workload: "long-episodes", seed: 5, duration: time.Millisecond}
	o, err := runRegistry(cfg)
	if err != nil {
		t.Fatalf("a dead pass process ended the run: %v", err)
	}
	// Three passes, each reporting its first experiment and losing the other three.
	if o.Attempted != 12 || o.Failed != 9 {
		t.Fatalf("attempted %d, failed %d; want 12 and 9", o.Attempted, o.Failed)
	}
	if err := emit(o, endToEnd); err != nil {
		t.Fatalf("a run with failures must still print its result line: %v", err)
	}
}

func TestScheduleRepeatsPerSeed(t *testing.T) {
	a, b := schedule(7, 10), schedule(7, 10)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two different schedules")
	}
	c := schedule(8, 10)
	if len(c) != len(a) {
		t.Fatalf("arrival count depends on the seed: %d vs %d", len(a), len(c))
	}
	var sameDue, sameTenant, sameFresh int
	for i := range a {
		if a[i].Due == c[i].Due {
			sameDue++
		}
		if a[i].Tenant == c[i].Tenant {
			sameTenant++
		}
		if a[i].Fresh && c[i].Fresh && a[i].Req == c[i].Req {
			sameFresh++
		}
	}
	if sameDue == len(a) || sameTenant == len(a) || sameFresh > 0 {
		t.Fatalf("seeds 7 and 8 share %d due times, %d tenants and %d fresh jobs of %d arrivals",
			sameDue, sameTenant, sameFresh, len(a))
	}
}

func TestScheduleShape(t *testing.T) {
	const seconds = 20
	arr := schedule(3, seconds)
	seeds := map[int64]bool{}
	shapes := map[string]int{}
	fresh, perTenant := 0, map[string]int{}
	for i, a := range arr {
		if i > 0 && a.Due < arr[i-1].Due {
			t.Fatalf("arrival %d is due before arrival %d", i, i-1)
		}
		if a.Due < 0 || a.Due >= seconds*time.Second {
			t.Fatalf("arrival %d due at %v, outside the run", i, a.Due)
		}
		perTenant[a.Tenant]++
		if !a.Fresh {
			if a.Req.Seed != 0 {
				t.Fatalf("hot-set arrival %d carries seed %d", i, a.Req.Seed)
			}
			continue
		}
		fresh++
		if a.Req.Seed <= 1 || a.Req.Seed >= warmSeed || seeds[a.Req.Seed] {
			t.Fatalf("fresh arrival %d has a reserved or repeated seed %d", i, a.Req.Seed)
		}
		seeds[a.Req.Seed] = true
		shapes[fmt.Sprint(a.Req.Experiment, a.Req.WeakDomains)]++
	}
	if want := int(math.Ceil(freshPerSec * float64(seconds))); fresh != want {
		t.Fatalf("%d fresh arrivals, want %d", fresh, want)
	}
	if len(arr) != fresh*(1+hitsPerFresh) {
		t.Fatalf("%d arrivals for %d fresh ones, want %d hot-set reads per fresh job", len(arr), fresh, hitsPerFresh)
	}
	for s, n := range shapes {
		if n < fresh/len(freshShapes) || n > fresh/len(freshShapes)+1 {
			t.Fatalf("shape %s got %d of %d fresh jobs; want an even split", s, n, fresh)
		}
	}
	for tn, n := range perTenant {
		if rate := float64(n) / seconds; rate >= 50 {
			t.Fatalf("tenant %s averages %.1f jobs/s, over the router's 50/s quota", tn, rate)
		}
	}
}

func TestDriveCountsStallsAsLagAndLatency(t *testing.T) {
	arr := make([]Arrival, 12)
	for i := range arr {
		arr[i].Due = time.Duration(i) * 5 * time.Millisecond
	}
	const stall = 60 * time.Millisecond
	var mu sync.Mutex
	latency := make([]time.Duration, len(arr))
	lags := drive(time.Now(), arr, 16, func(i int) {
		if i == 4 {
			time.Sleep(stall)
		}
	}, func(i int, due time.Time) {
		mu.Lock()
		latency[i] = time.Since(due)
		mu.Unlock()
	})
	if lags[4] < stall || latency[4] < stall {
		t.Fatalf("arrival 4: lag %v, latency %v; a %v generator stall must show in both", lags[4], latency[4], stall)
	}
	// Arrival 6 was due 10 ms after arrival 4, inside the stall.
	if lags[6] < stall-15*time.Millisecond || latency[6] < stall-15*time.Millisecond {
		t.Fatalf("arrival 6: lag %v, latency %v; the stall must carry over to arrivals due during it", lags[6], latency[6])
	}
}

func TestLoadClientConnectionCap(t *testing.T) {
	var opened atomic.Int32
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(10 * time.Millisecond)
	}))
	srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			opened.Add(1)
		}
	}
	srv.Start()
	defer srv.Close()
	conns := runtime.NumCPU()
	c := newLoadClient(conns)
	var wg sync.WaitGroup
	for i := 0; i < 8*conns; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := c.Get(srv.URL)
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
		}()
	}
	wg.Wait()
	if n := int(opened.Load()); n > conns {
		t.Fatalf("the load client opened %d connections, more than nproc = %d", n, conns)
	}
}

func TestPercentilesCarrySampleCounts(t *testing.T) {
	vals := []float64{5, 1, 4, 2, 3}
	p := pct(vals, 0.5)
	if p.Value != 3 || p.N != 5 {
		t.Fatalf("median %+v, want 3 over 5 samples", p)
	}
	if !strings.Contains(p.String(), "n=5") {
		t.Fatalf("%q does not print its sample count", p.String())
	}
	if got := quantile([]float64{1, 2, 3, 4}, 0.25); got != 1.75 {
		t.Fatalf("first quartile %v, want 1.75", got)
	}
}

func TestGoldenSections(t *testing.T) {
	golden, err := loadGolden("../cmd/k2bench/testdata/default.golden")
	if err != nil {
		t.Fatal(err)
	}
	for id, sec := range golden {
		if !strings.HasPrefix(sec, "== ") || strings.HasSuffix(sec, "\n\n") {
			t.Fatalf("section %s is not one table: %q", id, sec[:20])
		}
	}
	d, _ := experiment.DefFor("t1", experiment.Params{})
	if got := experiment.Measure(d).Table.String(); got != golden["t1"] {
		t.Fatalf("t1 table differs from its golden section: %s", firstDiff(golden["t1"], got))
	}
	if checkTable(golden["t1"], golden["t1"]) != "" {
		t.Fatal("a golden table fails its own check")
	}
	if checkTable("== x ==\nnote: FAIL oracle\n", "") == "" {
		t.Fatal("a FAIL note passed the check")
	}
	// At a non-default seed a faults table has no reference and is checked
	// by its invariant oracle alone.
	if r := checkTable(golden["faults"], ""); r != "" {
		t.Fatalf("the golden faults table fails its oracle check: %s", r)
	}
	broken := strings.Replace(golden["faults"], "-           true", "-           false", 1)
	if broken == golden["faults"] {
		t.Fatal("the golden faults table has no invariants row reading true")
	}
	if checkTable(broken, "") == "" {
		t.Fatal("a faults table whose invariants row reads false passed the check")
	}
}

func TestBenchmarkJSONListsTheMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b.PerLayer, perLayer) {
		t.Fatal("BENCHMARK.json per_layer differs from the metrics the traced run prints")
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatal("BENCHMARK.json end_to_end differs from the metrics the run prints")
	}
	for i, m := range endToEnd {
		if b.EndToEnd[i].Name != m.Name || b.EndToEnd[i].Unit != m.Unit || b.EndToEnd[i].Better != m.Better {
			t.Fatalf("BENCHMARK.json end_to_end[%d] is %+v, the run prints %+v", i, b.EndToEnd[i], m)
		}
	}
}
