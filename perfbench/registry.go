package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"k2/internal/dsm"
	"k2/internal/experiment"
	"k2/internal/trace"
)

// registryIDs are the experiments of the two registry workloads. Together
// they are exactly the default k2bench run.
var registryIDs = map[string][]string{
	"long-episodes": {"t6", "day", "f6b", "timeline"},
	"many-platforms": {"t1", "f1", "t2", "t3", "f6a", "f6c", "standby", "timeout", "t4", "t5",
		"a1", "a2", "a3", "a4", "a5", "scale", "dsmshare", "faults", "chaos", "replication"},
}

// expReport is one experiment of one pass, as the pass process saw it.
type expReport struct {
	ID       string  `json:"id"`
	Fail     string  `json:"fail,omitempty"`
	Hash     string  `json:"hash"`
	WallS    float64 `json:"wall_s"`    // measure + render + compare
	RenderS  float64 `json:"render_s"`  // Table.String
	CheckS   float64 `json:"check_s"`   // render + compare: delivering the finished table
	BootS    float64 `json:"boot_s"`    // program-reported Result.Boot
	EpisodeS float64 `json:"episode_s"` // Result.Wall - Result.Boot

	Events    uint64       `json:"events"`
	Switches  uint64       `json:"proc_switches"`
	Scheduled uint64       `json:"scheduled"`
	Cancelled uint64       `json:"cancelled"`
	Engines   int          `json:"engines"`
	VirtualNS int64        `json:"virtual_ns"`
	DSM       dsm.Counters `json:"dsm"`
}

// counts is the part of an expReport that must repeat exactly.
func (e expReport) counts() string {
	return fmt.Sprint(e.Events, e.Switches, e.Scheduled, e.Cancelled, e.Engines, e.VirtualNS, e.DSM)
}

// passReport is what a pass process prints on standard output: one line
// per experiment as it finishes, then one line with the rest of the report.
// A process that dies part-way has printed the experiments it finished.
type passReport struct {
	FirstOpUnixNS int64             `json:"first_op_unix_ns"`
	WallS         float64           `json:"wall_s"`
	Exps          []expReport       `json:"-"`
	TraceKinds    map[string]uint64 `json:"trace_kinds,omitempty"`
	AllocMB       float64           `json:"alloc_mb"`
	GCCycles      uint32            `json:"gc_cycles"`
	GCPauseMS     float64           `json:"gc_pause_ms"`
	CPUS          float64           `json:"cpu_s"`
	Spans         []Span            `json:"spans,omitempty"`
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// measure runs one experiment, turning an error or a panic into a failure.
func measure(d experiment.Def, opts ...experiment.Option) (r experiment.Result, fail string) {
	defer func() {
		if rec := recover(); rec != nil {
			fail = fmt.Sprintf("panic: %v", rec)
		}
	}()
	r = experiment.MeasureContext(context.Background(), d, opts...)
	if r.Err != nil {
		fail = "error: " + r.Err.Error()
	}
	return r, fail
}

// runPassProcess is the body of a pass process: one pass over a registry
// workload's experiments, one at a time, at the program's defaults. With
// traced set it installs a trace sink on every measurement and records
// spans. It reports on standard output as it goes.
func runPassProcess(workload string, seed int64, traced bool, goldenPath string) error {
	ids, ok := registryIDs[workload]
	if !ok {
		return fmt.Errorf("no registry workload %q", workload)
	}
	golden, err := loadGolden(goldenPath)
	if err != nil {
		return err
	}
	defs := make([]experiment.Def, len(ids))
	for i, id := range ids {
		d, ok := experiment.DefFor(id, experiment.Params{Seed: seed})
		if !ok {
			return fmt.Errorf("unknown experiment %q", id)
		}
		defs[i] = d
	}
	var rec *recorder
	kinds := make([]uint64, len(trace.Kinds()))
	var opts []experiment.Option
	if traced {
		rec = &recorder{}
		opts = append(opts, experiment.WithTraceSink(func(ev trace.Event) {
			if int(ev.Kind) < len(kinds) {
				kinds[ev.Kind]++
			}
		}))
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuSeconds()

	out := json.NewEncoder(os.Stdout)
	rep := passReport{}
	passID := rec.newID()
	first := time.Now()
	rep.FirstOpUnixNS = first.UnixNano()
	for i, d := range defs {
		expID := rec.newID()
		t0 := time.Now()
		r, fail := measure(d, opts...)
		t1 := time.Now()
		text := r.Table.String()
		t2 := time.Now()
		if fail == "" {
			want := golden[d.ID]
			if seedDependent[d.ID] && seed != defaultSeed {
				want = "" // checked by its oracles and across passes instead
			}
			fail = checkTable(text, want)
		}
		t3 := time.Now()
		rec.record(0, expID, "measure", d.ID, t0, t1)
		rec.record(0, expID, "render", d.ID, t1, t2)
		rec.record(0, expID, "compare", d.ID, t2, t3)
		rec.record(expID, passID, "experiment", d.ID, t0, t3)
		sum := sha256.Sum256([]byte(text))
		e := expReport{
			ID: ids[i], Fail: fail, Hash: hex.EncodeToString(sum[:8]),
			WallS: t3.Sub(t0).Seconds(), RenderS: t2.Sub(t1).Seconds(), CheckS: t3.Sub(t1).Seconds(),
			BootS: r.Boot.Seconds(), EpisodeS: (r.Wall - r.Boot).Seconds(),
			Events: r.Stats.Dispatched, Switches: r.Stats.ProcSwitches,
			Scheduled: r.Stats.Scheduled, Cancelled: r.Stats.Cancelled,
			Engines: r.Engines, VirtualNS: int64(r.Virtual),
		}
		e.DSM, _ = r.DSMCounters()
		if err := out.Encode(e); err != nil {
			return err
		}
	}
	end := time.Now()
	rec.record(passID, 0, "pass", workload, first, end)
	rep.WallS = end.Sub(first).Seconds()
	rep.CPUS = cpuSeconds() - cpu0
	runtime.ReadMemStats(&m1)
	rep.AllocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
	rep.GCCycles = m1.NumGC - m0.NumGC
	rep.GCPauseMS = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6
	if traced {
		rep.TraceKinds = map[string]uint64{}
		for i, k := range trace.Kinds() {
			rep.TraceKinds[k] = kinds[i]
		}
		rep.Spans = rec.spans
	}
	return out.Encode(rep)
}

// passRun is one pass as the parent saw it.
type passRun struct {
	passReport
	Traced    bool
	SetupS    float64 // process launch to the first experiment's start
	PeakRSSMB float64
	Died      string // why the pass process ended before its report, if it did
}

// runPass starts a fresh pass process and collects its report. A process
// that dies, as a panic on a goroutine the experiment started does, is not
// an error here: the pass comes back with the experiments it finished and
// Died set to the first panic line it printed.
func runPass(cfg config, traced bool) (passRun, error) {
	self, err := os.Executable()
	if err != nil {
		return passRun{}, err
	}
	cmd := exec.Command(self, "-pass", cfg.workload, "-seed", strconv.FormatInt(cfg.seed, 10),
		"-traced="+strconv.FormatBool(traced), "-golden", cfg.golden)
	var out, stderr bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = io.MultiWriter(os.Stderr, &stderr)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	launch := time.Now()
	runErr := cmd.Run()
	if cmd.ProcessState == nil {
		return passRun{}, fmt.Errorf("pass process: %w", runErr)
	}
	var p passRun
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	for i, ln := range lines {
		if len(ln) == 0 {
			continue
		}
		var err error
		if i < len(registryIDs[cfg.workload]) {
			var e expReport
			err = json.Unmarshal(ln, &e)
			p.Exps = append(p.Exps, e)
		} else {
			err = json.Unmarshal(ln, &p.passReport)
		}
		if err != nil {
			return passRun{}, fmt.Errorf("pass process report: %w", err)
		}
	}
	if runErr != nil {
		p.Died = runErr.Error()
		for _, ln := range strings.Split(stderr.String(), "\n") {
			if strings.HasPrefix(ln, "panic: ") || strings.HasPrefix(ln, "perfbench: ") {
				p.Died = ln
				break
			}
		}
		return p, nil
	}
	p.Traced = traced
	p.SetupS = float64(p.FirstOpUnixNS-launch.UnixNano()) / 1e9
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		p.PeakRSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return p, nil
}

// runRegistry runs fresh pass processes for the run's duration (at least
// three; a traced run alternates untraced and traced passes) and checks
// that every table is right and repeats byte for byte across passes. The
// first pass only warms the page cache: it is checked but not timed. A
// pass process that dies fails the experiment it was running and every
// later one of that pass, and gives no timings.
func runRegistry(cfg config) (outcome, error) {
	o := outcome{Values: map[string]float64{}}
	ids := registryIDs[cfg.workload]
	var passes []passRun
	refHash := map[string]string{}
	refCounts := map[string]string{}
	reported := map[string]bool{} // each distinct finding is printed once per run
	report := func(id, reason string) {
		if !reported[id+reason] {
			reported[id+reason] = true
			finding(cfg, id, reason, fmt.Sprintf("go run ./cmd/k2bench -parallel 1 -only %s -seed %d", id, cfg.seed))
		}
	}
	start := time.Now()
	for i := 0; i < 3 || time.Since(start) < cfg.duration; i++ {
		p, err := runPass(cfg, cfg.trace && i%2 == 1)
		if err != nil {
			return o, err
		}
		if p.Died != "" {
			if len(p.Exps) == len(ids) { // it died after reporting its last experiment
				p.Exps = p.Exps[:len(ids)-1]
			}
			lost := ids[len(p.Exps):]
			o.Attempted += len(lost)
			o.Failed += len(lost)
			report(lost[0], fmt.Sprintf("pass process died (%s); %d later experiments of the pass did not run",
				p.Died, len(lost)-1))
		}
		for _, e := range p.Exps {
			o.Attempted++
			fail := e.Fail
			if h, ok := refHash[e.ID]; !ok {
				refHash[e.ID], refCounts[e.ID] = e.Hash, e.counts()
			} else if fail == "" && h != e.Hash {
				fail = "table bytes differ from the run's first pass"
			} else if fail == "" && refCounts[e.ID] != e.counts() {
				fail = "engine or DSM counts differ from the run's first pass"
			}
			if fail != "" {
				o.Failed++
				report(e.ID, fail)
			}
		}
		if i > 0 && p.Died == "" {
			passes = append(passes, p)
		}
	}
	var untraced, traced []passRun
	for _, p := range passes {
		if p.Traced {
			traced = append(traced, p)
		} else {
			untraced = append(untraced, p)
		}
	}
	fmt.Printf("workload %s seed %d: %d timed passes (%d traced) after one warm-up, %d experiments attempted, %d failed, failed_frac %.4f ratio\n",
		cfg.workload, cfg.seed, len(passes), len(traced), o.Attempted, o.Failed, float64(o.Failed)/float64(o.Attempted))
	if len(untraced) == 0 || (cfg.trace && len(traced) == 0) {
		return o, nil // no finished pass to time; the result line reports the failures
	}
	if cfg.trace {
		registryLayers(cfg, untraced, traced, o.Values)
		return o, nil
	}
	var walls, setups, rss []float64
	for _, p := range untraced {
		walls = append(walls, p.WallS)
		setups = append(setups, p.SetupS)
		rss = append(rss, p.PeakRSSMB)
	}
	sims := perExperiment(untraced, func(e expReport) float64 { return e.WallS })
	hits := perExperiment(untraced, func(e expReport) float64 { return e.CheckS })
	o.Values["setup_s"] = median(setups)
	o.Values["wall_s"] = median(walls)
	o.Values["peak_rss_mb"] = median(rss)
	o.Values["hit_p50_ms"] = median(hits)
	o.Values["sim_p50_ms"] = median(sims)
	fmt.Printf("wall_s      %s s per pass (quartiles %.4f..%.4f)\n", pct(walls, 0.5), quantile(walls, 0.25), quantile(walls, 0.75))
	fmt.Printf("setup_s     %s s per process start\n", pct(setups, 0.5))
	fmt.Printf("peak_rss_mb %s MB per pass process\n", pct(rss, 0.5))
	fmt.Printf("hit (render + golden check), over experiments' medians of %d passes: p50 %s ms, p95 %s ms\n",
		len(untraced), pct(hits, 0.5), pct(hits, 0.95))
	fmt.Printf("sim (one experiment, measured and checked), over experiments' medians of %d passes: p50 %s ms, p95 %s ms\n",
		len(untraced), pct(sims, 0.5), pct(sims, 0.95))
	return o, nil
}

// perExperiment returns, in milliseconds, each experiment's median of
// f over the passes. The workloads mix experiments whose times differ by
// orders of magnitude, so percentiles are taken over these per-experiment
// medians: a percentile of the pooled samples would fall between two
// experiments' clusters and read the edge of one of them.
func perExperiment(passes []passRun, f func(expReport) float64) []float64 {
	var out []float64
	for i := range passes[0].Exps {
		var v []float64
		for _, p := range passes {
			v = append(v, f(p.Exps[i])*1e3)
		}
		out = append(out, median(v))
	}
	return out
}

// registryLayers computes the per-layer metrics of a traced registry run:
// span timings and trace-sink counts from the traced passes, program
// timings and Go runtime figures from the untraced ones, and exact counts
// from the first pass (the run already checked that they repeat).
func registryLayers(cfg config, untraced, traced []passRun, vals map[string]float64) {
	perExp := map[string][]float64{}
	var renders, tracedWalls, untracedWalls, sumRatio []float64
	selfs := map[string][]float64{}
	for _, p := range traced {
		total, render := 0.0, 0.0
		for _, e := range p.Exps {
			perExp[e.ID] = append(perExp[e.ID], e.WallS)
			total += e.WallS
			render += e.RenderS
		}
		renders = append(renders, render)
		tracedWalls = append(tracedWalls, p.WallS)
		sumRatio = append(sumRatio, total/p.WallS)
		for n, s := range selfSeconds(p.Spans) {
			selfs[n] = append(selfs[n], s)
		}
	}
	for id, w := range perExp {
		vals["experiment."+id+".wall_s"] = median(w)
	}
	selfMedians := map[string]float64{}
	for n, s := range selfs {
		selfMedians[n] = median(s)
		vals["span."+n+".self_s"] = selfMedians[n]
	}
	vals["experiment.render_s"] = median(renders)
	var episode, boot, alloc, gcs, pause, cpu []float64
	for _, p := range untraced {
		untracedWalls = append(untracedWalls, p.WallS)
		ep, bt := 0.0, 0.0
		for _, e := range p.Exps {
			ep += e.EpisodeS
			bt += e.BootS
		}
		episode = append(episode, ep)
		boot = append(boot, bt)
		alloc = append(alloc, p.AllocMB)
		gcs = append(gcs, float64(p.GCCycles))
		pause = append(pause, p.GCPauseMS)
		cpu = append(cpu, p.CPUS)
	}
	vals["trace.overhead_s"] = median(tracedWalls) - median(untracedWalls)
	vals["sim.episode_s"] = median(episode)
	vals["core.boot_s"] = median(boot)
	vals["go.alloc_mb"] = median(alloc)
	vals["go.gc_cycles"] = median(gcs)
	vals["go.gc_pause_ms"] = median(pause)
	vals["go.cpu_s"] = median(cpu)
	vals["hit.p95_ms"] = quantile(perExperiment(untraced, func(e expReport) float64 { return e.CheckS }), 0.95)
	vals["sim.p95_ms"] = quantile(perExperiment(untraced, func(e expReport) float64 { return e.WallS }), 0.95)

	var c expReport
	for _, e := range untraced[0].Exps {
		c.Events += e.Events
		c.Switches += e.Switches
		c.Scheduled += e.Scheduled
		c.Cancelled += e.Cancelled
		c.Engines += e.Engines
		c.VirtualNS += e.VirtualNS
		c.DSM.Add(e.DSM)
	}
	vals["sim.events"] = float64(c.Events)
	vals["sim.proc_switches"] = float64(c.Switches)
	vals["sim.scheduled"] = float64(c.Scheduled)
	vals["sim.cancelled"] = float64(c.Cancelled)
	vals["sim.engines"] = float64(c.Engines)
	vals["sim.virtual_s"] = float64(c.VirtualNS) / 1e9
	vals["sim.events_per_s"] = float64(c.Events) / median(episode)
	vals["dsm.faults"] = float64(c.DSM.Faults)
	vals["dsm.read_faults"] = float64(c.DSM.ReadFaults)
	vals["dsm.write_faults"] = float64(c.DSM.WriteFaults)
	vals["dsm.invalidations"] = float64(c.DSM.InvalidationsSent)
	vals["dsm.claims"] = float64(c.DSM.Claims)
	vals["dsm.resends"] = float64(c.DSM.Resends)
	for k, n := range traced[0].TraceKinds {
		vals["trace."+k+".events"] = float64(n)
	}
	fmt.Printf("traced pass %s s vs untraced %s s: trace overhead %.4f s\n",
		pct(tracedWalls, 0.5), pct(untracedWalls, 0.5), vals["trace.overhead_s"])
	fmt.Printf("experiment walls sum to %.2f%% of the traced pass wall (median of %d)\n",
		100*median(sumRatio), len(sumRatio))
	var spans []Span
	for _, p := range traced {
		spans = append(spans, p.Spans...)
	}
	spanFile(cfg, spans)
	printSelfTimes(selfMedians, "median per traced pass")
}
