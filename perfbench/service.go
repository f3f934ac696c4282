package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"k2/internal/server"
)

const (
	workerCount = 2                     // k2d workers behind the router, each -parallel 1
	pollEvery   = 10 * time.Millisecond // status polling of jobs still simulating
	jobDeadline = 60 * time.Second      // a job not terminal this long after its due time is lost
	maxInflight = 4096                  // open-loop submissions in flight before the generator blocks
	maxFindings = 20                    // failures printed in full per run
	readyWait   = 30 * time.Second      // bound for a process to listen or a worker to register
	stopWait    = 20 * time.Second      // bound for a process to drain after SIGTERM
	tenantSetup = "perfbench-setup"     // the tenant set-up traffic is charged to
)

// warmSeed is the first seed of the set-up warm-up jobs; schedule never
// draws a seed this high.
const warmSeed = int64(1)<<41 + 1

var listenRe = regexp.MustCompile(`(?:serving|routing) on (\S+)`)

// proc is one program process the service workload started.
type proc struct {
	cmd    *exec.Cmd
	url    string
	exited chan struct{}
}

// startProc starts bin from cfg.bin with its output in a log file and
// waits until it reports its listen address.
func startProc(cfg config, bin, name string, args ...string) (*proc, error) {
	logf, err := os.Create(filepath.Join(cfg.out, name+".log"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(filepath.Join(cfg.bin, bin), args...)
	cmd.Stdout = logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		logf.Close()
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	p := &proc{cmd: cmd, exited: make(chan struct{})}
	ready := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			fmt.Fprintln(logf, sc.Text())
			if m := listenRe.FindStringSubmatch(sc.Text()); m != nil {
				select {
				case ready <- m[1]:
				default:
				}
			}
		}
		cmd.Wait() //nolint:errcheck // a drained process exits 0; anything else shows in its log
		logf.Close()
		close(p.exited)
	}()
	select {
	case addr := <-ready:
		p.url = "http://" + addr
		return p, nil
	case <-p.exited:
		return nil, fmt.Errorf("%s exited before listening; see %s.log", name, name)
	case <-time.After(readyWait):
		p.stop()
		return nil, fmt.Errorf("%s did not listen within %v", name, readyWait)
	}
}

// stop asks the process to drain and waits until it has exited.
func (p *proc) stop() {
	p.cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck // it may have exited already
	select {
	case <-p.exited:
	case <-time.After(stopWait):
		p.cmd.Process.Kill() //nolint:errcheck // as above
		<-p.exited
	}
}

// memMB reads a memory field (VmRSS, VmHWM) of the process from /proc.
func (p *proc) memMB(field string) float64 {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	for _, ln := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(ln, field+":"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// fleetSet is one router with its workers.
type fleetSet struct {
	router  *proc
	workers []*proc
}

func (f *fleetSet) procs() []*proc { return append([]*proc{f.router}, f.workers...) }

// stop drains every process of the fleet and waits for all of them.
func (f *fleetSet) stop() {
	var wg sync.WaitGroup
	for _, p := range f.procs() {
		wg.Add(1)
		go func(p *proc) {
			defer wg.Done()
			p.stop()
		}(p)
	}
	wg.Wait()
}

// postJob submits req to base and decodes the job status of a 202.
func postJob(c *http.Client, base string, req server.Request, tenant string) (server.Status, int, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return server.Status{}, 0, err
	}
	hr, err := http.NewRequest(http.MethodPost, base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return server.Status{}, 0, err
	}
	hr.Header.Set("Content-Type", "application/json")
	if tenant != "" {
		hr.Header.Set("X-K2-Tenant", tenant)
	}
	return doStatus(c, hr, http.StatusAccepted)
}

// getJob fetches a job's status, long-polling up to wait seconds if set.
func getJob(c *http.Client, base, id, wait string) (server.Status, int, error) {
	url := base + "/v1/jobs/" + id
	if wait != "" {
		url += "?wait=" + wait
	}
	hr, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return server.Status{}, 0, err
	}
	return doStatus(c, hr, http.StatusOK)
}

func doStatus(c *http.Client, hr *http.Request, okCode int) (server.Status, int, error) {
	resp, err := c.Do(hr)
	if err != nil {
		return server.Status{}, 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return server.Status{}, resp.StatusCode, err
	}
	var st server.Status
	if resp.StatusCode == okCode {
		if err := json.Unmarshal(raw, &st); err != nil {
			return st, resp.StatusCode, fmt.Errorf("decode job status: %w", err)
		}
	}
	return st, resp.StatusCode, nil
}

// scrape reads the named counters from a Prometheus text endpoint.
func scrape(c *http.Client, base string, names ...string) (map[string]float64, error) {
	resp, err := c.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, ln := range strings.Split(string(raw), "\n") {
		for _, n := range names {
			if rest, ok := strings.CutPrefix(ln, n+" "); ok {
				out[n], _ = strconv.ParseFloat(strings.TrimSpace(rest), 64)
			}
		}
	}
	return out, nil
}

// waitDone submits req to base and long-polls it to done.
func waitDone(c *http.Client, base string, req server.Request, tenant string) (server.Status, error) {
	st, code, err := postJob(c, base, req, tenant)
	if err == nil && code != http.StatusAccepted {
		err = fmt.Errorf("HTTP %d", code)
	}
	for err == nil && !st.State.Terminal() {
		st, code, err = getJob(c, base, st.ID, "120")
		if err == nil && code != http.StatusOK {
			err = fmt.Errorf("HTTP %d", code)
		}
	}
	if err == nil && (st.State != server.StateDone || st.Result == nil) {
		err = fmt.Errorf("ended %s: %s", st.State, st.Error)
	}
	if err != nil {
		return st, fmt.Errorf("set-up job %+v: %w", req, err)
	}
	return st, nil
}

// startFleet launches a router and its workers, waits until the workers
// are registered, caches the hot set through the router (checking every
// table against the golden) and runs one job of each fresh shape on each
// worker, so the warm-start checkpoints exist before the load starts.
func startFleet(cfg config, c *http.Client, golden map[string]string) (*fleetSet, error) {
	f := &fleetSet{}
	var err error
	f.router, err = startProc(cfg, "k2fleet", "router", "-addr", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	for i := 1; i <= workerCount; i++ {
		w, err := startProc(cfg, "k2d", fmt.Sprintf("worker%d", i), "-addr", "127.0.0.1:0",
			"-parallel", "1", "-fleet", f.router.url, "-worker-id", fmt.Sprintf("w%d", i))
		if err != nil {
			f.stop()
			return nil, err
		}
		f.workers = append(f.workers, w)
	}
	if err := waitRegistered(c, f.router.url); err != nil {
		f.stop()
		return nil, err
	}
	var wg sync.WaitGroup
	errs := make(chan error, len(hotSet())+workerCount*len(freshShapes))
	for _, req := range hotSet() {
		wg.Add(1)
		go func(req server.Request) {
			defer wg.Done()
			st, err := waitDone(c, f.router.url, req, tenantSetup)
			if err == nil && st.Result.Table != golden[req.Experiment] {
				err = fmt.Errorf("hot-set table %s differs from the golden: %s", req.Experiment,
					firstDiff(golden[req.Experiment], st.Result.Table))
			}
			errs <- err
		}(req)
	}
	for _, w := range f.workers {
		for k, req := range freshShapes {
			req.Seed = warmSeed + int64(k)
			wg.Add(1)
			go func(base string, req server.Request) {
				defer wg.Done()
				_, err := waitDone(c, base, req, "")
				errs <- err
			}(w.url, req)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			f.stop()
			return nil, err
		}
	}
	return f, nil
}

// waitRegistered polls the router until every worker is up on its ring.
func waitRegistered(c *http.Client, base string) error {
	deadline := time.Now().Add(readyWait)
	for time.Now().Before(deadline) {
		resp, err := c.Get(base + "/v1/workers")
		if err == nil {
			var ws []struct {
				Up bool `json:"up"`
			}
			err = json.NewDecoder(resp.Body).Decode(&ws)
			resp.Body.Close()
			up := 0
			for _, w := range ws {
				if w.Up {
					up++
				}
			}
			if err == nil && up == workerCount {
				return nil
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	return fmt.Errorf("workers did not register with the router within %v", readyWait)
}

// pendingJob is a submission the server accepted but has not finished.
type pendingJob struct {
	id        string
	req       server.Request
	due       time.Time
	span      int // the arrival span's ID
	submitEnd time.Time
	fresh     bool
	orig      *string // a follow-up's original table
}

// svcRun is the load phase of one service run.
type svcRun struct {
	cfg    config
	client *http.Client
	base   string
	golden map[string]string
	rec    *recorder
	ops    sync.WaitGroup // every submission until its final outcome

	mu                      sync.Mutex
	attempted, failed       int
	findings                int
	pending                 []*pendingJob
	hitMS, simMS            []float64
	submitMS, statusMS      []float64
	queuedMS, runMS, wallMS []float64
	overheadMS, events      []float64
	followups, followupHits int
}

func (s *svcRun) fail(req server.Request, what, reason string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.failed++
	s.findings++
	if s.findings <= maxFindings {
		finding(s.cfg, fmt.Sprintf("%s %+v", what, req), reason, k2benchRepro(req))
	}
}

// k2benchRepro is the k2bench command that runs the job req describes.
func k2benchRepro(req server.Request) string {
	cmd := "go run ./cmd/k2bench -only " + req.Experiment
	if req.Seed != 0 {
		cmd += fmt.Sprintf(" -seed %d", req.Seed)
	}
	if req.WeakDomains != 0 {
		cmd += fmt.Sprintf(" -weakdomains %d", req.WeakDomains)
	}
	if req.Sweep != 0 {
		cmd += fmt.Sprintf(" -sweep %d", req.Sweep)
	}
	return cmd
}

// submit sends one arrival or follow-up, due at due, and records what the
// submission returned. A job the server did not finish at submit time is
// handed to the poller.
func (s *svcRun) submit(req server.Request, tenant string, due time.Time, fresh bool, orig *string) {
	arr := s.rec.newID()
	t0 := time.Now()
	st, code, err := postJob(s.client, s.base, req, tenant)
	t1 := time.Now()
	s.rec.record(0, arr, "submit", st.ID, t0, t1)
	s.mu.Lock()
	s.attempted++
	s.submitMS = append(s.submitMS, t1.Sub(t0).Seconds()*1e3)
	if orig != nil {
		s.followups++
	}
	s.mu.Unlock()
	what := "submission from " + tenant
	switch {
	case err != nil:
		s.fail(req, what, err.Error())
	case code != http.StatusAccepted:
		s.fail(req, what, fmt.Sprintf("submit answered HTTP %d", code))
	case st.State == server.StateDone:
		s.mu.Lock()
		s.hitMS = append(s.hitMS, t1.Sub(due).Seconds()*1e3)
		if orig != nil {
			s.followupHits++
		}
		s.mu.Unlock()
		s.finished(&pendingJob{id: st.ID, req: req, due: due, span: arr, fresh: fresh, orig: orig}, st, t1)
	case st.State.Terminal():
		s.fail(req, what, fmt.Sprintf("job %s ended %s at submit: %s", st.ID, st.State, st.Error))
	default:
		s.mu.Lock()
		s.pending = append(s.pending, &pendingJob{id: st.ID, req: req, due: due, span: arr,
			submitEnd: t1, fresh: fresh, orig: orig})
		s.mu.Unlock()
		return // the poller ends this operation
	}
	s.rec.record(arr, 0, "arrival", st.ID, due, time.Now())
	s.ops.Done()
}

// finished checks a done job's table: a hot-set read against the golden,
// a follow-up against its original, and every table for FAIL notes. A
// fresh job's first completion triggers its follow-up.
func (s *svcRun) finished(p *pendingJob, st server.Status, seen time.Time) {
	t0 := time.Now()
	want := "" // no reference: only FAIL notes are checked
	switch {
	case p.orig != nil:
		want = *p.orig
	case !p.fresh:
		want = s.golden[p.req.Experiment]
	}
	reason := "done without a result"
	if st.Result != nil {
		reason = checkTable(st.Result.Table, want)
	}
	s.rec.record(0, p.span, "terminal", p.id, t0, time.Now())
	if reason != "" {
		s.fail(p.req, "job "+p.id, reason)
		return
	}
	if p.fresh && p.orig == nil {
		table := st.Result.Table
		s.ops.Add(1)
		go s.submit(p.req, tenants[0], seen, false, &table)
	}
}

// poll watches the jobs still simulating until stop closes.
func (s *svcRun) poll(stop <-chan struct{}) {
	for {
		s.mu.Lock()
		batch := append([]*pendingJob(nil), s.pending...)
		s.mu.Unlock()
		for _, p := range batch {
			t0 := time.Now()
			st, code, err := getJob(s.client, s.base, p.id, "")
			t1 := time.Now()
			s.mu.Lock()
			s.statusMS = append(s.statusMS, t1.Sub(t0).Seconds()*1e3)
			s.mu.Unlock()
			terminal := err == nil && code == http.StatusOK && st.State.Terminal()
			if !terminal && t1.Sub(p.due) < jobDeadline {
				continue
			}
			s.mu.Lock()
			for i, q := range s.pending {
				if q == p {
					s.pending = append(s.pending[:i], s.pending[i+1:]...)
					break
				}
			}
			s.mu.Unlock()
			s.rec.record(0, p.span, "wait", p.id, p.submitEnd, t1)
			s.simulated(p, st, terminal, t1)
			s.rec.record(p.span, 0, "arrival", p.id, p.due, time.Now())
			s.ops.Done()
		}
		select {
		case <-stop:
			return
		case <-time.After(pollEvery):
		}
	}
}

// simulated records a job that was not answered from the cache.
func (s *svcRun) simulated(p *pendingJob, st server.Status, terminal bool, seen time.Time) {
	what := "job " + p.id
	if !terminal {
		s.fail(p.req, what, fmt.Sprintf("not terminal %v after its due time", jobDeadline))
		return
	}
	if st.State != server.StateDone {
		s.fail(p.req, what, fmt.Sprintf("ended %s: %s", st.State, st.Error))
		return
	}
	submitted, err := time.Parse(time.RFC3339Nano, st.Submitted)
	if err != nil {
		s.fail(p.req, what, "bad submitted time: "+err.Error())
		return
	}
	finish := submitted.Add(time.Duration((st.QueuedMS + st.RunMS) * float64(time.Millisecond)))
	lat := finish.Sub(p.due).Seconds() * 1e3
	s.mu.Lock()
	s.simMS = append(s.simMS, lat)
	s.queuedMS = append(s.queuedMS, st.QueuedMS)
	s.runMS = append(s.runMS, st.RunMS)
	s.overheadMS = append(s.overheadMS, lat-st.QueuedMS-st.RunMS)
	if st.Result != nil {
		s.wallMS = append(s.wallMS, st.Result.WallMS)
		s.events = append(s.events, float64(st.Result.Events))
	}
	s.mu.Unlock()
	s.finished(p, st, seen)
}

var workerCounters = []string{"k2d_cache_hits_total", "k2d_cache_misses_total",
	"k2d_cache_evictions_total", "k2d_warm_starts_total", "k2d_jobs_rejected_total"}

var routerCounters = []string{"k2fleet_quota_sheds_total", "k2fleet_admission_sheds_total"}

// counterSums sums the named counters over bases.
func counterSums(c *http.Client, bases []string, names []string) (map[string]float64, error) {
	out := map[string]float64{}
	for _, b := range bases {
		m, err := scrape(c, b, names...)
		if err != nil {
			return nil, err
		}
		for k, v := range m {
			out[k] += v
		}
	}
	return out, nil
}

// runService sets the fleet up, drives the seeded open-loop load through
// the router, and reports.
func runService(cfg config) (outcome, error) {
	o := outcome{Values: map[string]float64{}}
	golden, err := loadGolden(cfg.golden)
	if err != nil {
		return o, err
	}
	setupClient := &http.Client{Timeout: 130 * time.Second}
	t0 := time.Now()
	f, err := startFleet(cfg, setupClient, golden)
	if err != nil {
		return o, err
	}
	setupS := time.Since(t0).Seconds()
	defer f.stop()
	var workerURLs []string
	rss0 := 0.0
	for _, w := range f.workers {
		workerURLs = append(workerURLs, w.url)
		rss0 += w.memMB("VmRSS")
	}
	w0, err := counterSums(setupClient, workerURLs, workerCounters)
	if err != nil {
		return o, err
	}
	r0, err := counterSums(setupClient, []string{f.router.url}, routerCounters)
	if err != nil {
		return o, err
	}
	setupClient.CloseIdleConnections()

	s := &svcRun{cfg: cfg, client: newLoadClient(runtime.NumCPU()), base: f.router.url, golden: golden}
	if cfg.trace {
		s.rec = &recorder{}
	}
	arrivals := schedule(cfg.seed, cfg.duration.Seconds())
	stop := make(chan struct{})
	polled := make(chan struct{})
	go func() {
		s.poll(stop)
		close(polled)
	}()
	lags := drive(time.Now(), arrivals, maxInflight, nil, func(i int, due time.Time) {
		s.ops.Add(1)
		a := arrivals[i]
		s.submit(a.Req, a.Tenant, due, a.Fresh, nil)
	})
	s.ops.Wait()
	close(stop)
	<-polled
	s.client.CloseIdleConnections()

	w1, err := counterSums(setupClient, workerURLs, workerCounters)
	if err != nil {
		return o, err
	}
	r1, err := counterSums(setupClient, []string{f.router.url}, routerCounters)
	if err != nil {
		return o, err
	}
	setupClient.CloseIdleConnections()
	rss1, peak := 0.0, 0.0
	for _, w := range f.workers {
		rss1 += w.memMB("VmRSS")
	}
	for _, p := range f.procs() {
		peak += p.memMB("VmHWM")
	}

	o.Attempted, o.Failed = s.attempted, s.failed
	var lagMS []float64
	for _, l := range lags {
		lagMS = append(lagMS, l.Seconds()*1e3)
	}
	fmt.Printf("workload service seed %d: %d arrivals scheduled, %d submissions attempted (incl. %d follow-ups), %d failed, failed_frac %.4f ratio\n",
		cfg.seed, len(arrivals), s.attempted, s.followups, s.failed, float64(s.failed)/float64(s.attempted))
	fmt.Printf("setup_s     %.4f s for the fleet set-up\n", setupS)
	fmt.Printf("hit         p50 %s ms, p95 %s ms (due time to done at submit)\n", pct(s.hitMS, 0.5), pct(s.hitMS, 0.95))
	fmt.Printf("sim         p50 %s ms, p95 %s ms (due time to server-reported finish)\n", pct(s.simMS, 0.5), pct(s.simMS, 0.95))
	fmt.Printf("follow-ups  %d of %d answered from the cache\n", s.followupHits, s.followups)
	fmt.Printf("worker RSS  %.1f MB after set-up, %.1f MB at the end, over %d simulated jobs\n", rss0, rss1, len(s.simMS))
	fmt.Printf("loadgen lag p50 %s ms, p99 %s ms\n", pct(lagMS, 0.5), pct(lagMS, 0.99))
	if len(s.hitMS) < 200 || len(s.simMS) < 200 {
		fmt.Printf("warning: fewer than 200 samples in a class; p95 is not supported by ten samples beyond it\n")
	}

	if !cfg.trace {
		o.Values["setup_s"] = setupS
		o.Values["wall_s"] = sum(s.runMS) / 1e3
		o.Values["peak_rss_mb"] = peak
		o.Values["hit_p50_ms"] = quantile(s.hitMS, 0.5)
		o.Values["sim_p50_ms"] = quantile(s.simMS, 0.5)
		return o, nil
	}
	v := o.Values
	v["fleet.submit_p50_ms"] = quantile(s.submitMS, 0.5)
	v["fleet.submit_p95_ms"] = quantile(s.submitMS, 0.95)
	v["fleet.status_p50_ms"] = quantile(s.statusMS, 0.5)
	v["server.queue_wait_p50_ms"] = quantile(s.queuedMS, 0.5)
	v["server.queue_wait_p95_ms"] = quantile(s.queuedMS, 0.95)
	v["server.run_p50_ms"] = quantile(s.runMS, 0.5)
	v["server.run_p95_ms"] = quantile(s.runMS, 0.95)
	v["experiment.job_wall_p50_ms"] = quantile(s.wallMS, 0.5)
	v["sim.events_per_job"] = quantile(s.events, 0.5)
	v["server.overhead_p50_ms"] = quantile(s.overheadMS, 0.5)
	v["server.cache_hits"] = w1["k2d_cache_hits_total"] - w0["k2d_cache_hits_total"]
	v["server.cache_misses"] = w1["k2d_cache_misses_total"] - w0["k2d_cache_misses_total"]
	v["server.cache_evictions"] = w1["k2d_cache_evictions_total"] - w0["k2d_cache_evictions_total"]
	v["server.warm_starts"] = w1["k2d_warm_starts_total"] - w0["k2d_warm_starts_total"]
	v["server.admission_sheds"] = w1["k2d_jobs_rejected_total"] - w0["k2d_jobs_rejected_total"]
	v["fleet.quota_sheds"] = r1["k2fleet_quota_sheds_total"] - r0["k2fleet_quota_sheds_total"]
	v["server.followups"] = float64(s.followups)
	v["server.followup_hit_ratio"] = float64(s.followupHits) / float64(s.followups)
	v["server.rss_mb_per_sim_job"] = (rss1 - rss0) / float64(len(s.simMS))
	v["loadgen.lag_p99_ms"] = quantile(lagMS, 0.99)
	v["hit.p95_ms"] = quantile(s.hitMS, 0.95)
	v["sim.p95_ms"] = quantile(s.simMS, 0.95)
	v["hit.samples"] = float64(len(s.hitMS))
	v["sim.samples"] = float64(len(s.simMS))
	self := selfSeconds(s.rec.spans)
	for _, n := range []string{"arrival", "submit", "wait", "terminal"} {
		v["span."+n+".self_s"] = self[n]
	}
	spanFile(cfg, s.rec.spans)
	printSelfTimes(self, "summed over the run")
	return o, nil
}
