// Command perfbench is the K2 reproduction's end-to-end benchmark. It runs
// one named workload at a given seed for a given time, checks every table
// the program produces, and prints its metrics by name and unit; the last
// line of standard output is one JSON object with the result.
//
//	bash perfbench/run.sh --workload long-episodes --seed 1 --seconds 36 --trace 0
//
// Workloads (README.md in this directory says why each exists):
//
//	long-episodes   t6, day, f6b and timeline, one pass per fresh process
//	many-platforms  the other 20 registry experiments, the same way
//	service         a k2fleet router in front of two k2d workers under
//	                open-loop load from this process
//
// With --trace 1 the run records spans around its calls into the program
// and prints the per-layer metrics instead of the end-to-end ones.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// config is one run's settings.
type config struct {
	workload string
	seed     int64
	duration time.Duration
	trace    bool
	bin      string // directory holding the k2d and k2fleet binaries
	out      string // directory for logs and span files
	golden   string // the committed default k2bench output
}

func main() {
	var cfg config
	var seconds, traceFlag int
	var passWorkload string
	var passTraced bool
	flag.StringVar(&cfg.workload, "workload", "", "workload: long-episodes, many-platforms or service")
	flag.Int64Var(&cfg.seed, "seed", defaultSeed, "workload seed; the default seed reproduces the golden tables")
	flag.IntVar(&seconds, "seconds", 36, "how long the run measures")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs the traced run and prints per-layer metrics")
	flag.StringVar(&cfg.bin, "bin", "", "directory holding the k2d and k2fleet binaries")
	flag.StringVar(&cfg.out, "out", ".bench_build", "directory for logs and span files")
	flag.StringVar(&cfg.golden, "golden", "cmd/k2bench/testdata/default.golden", "golden k2bench output")
	flag.StringVar(&passWorkload, "pass", "", "internal: run one pass of this registry workload and report it")
	flag.BoolVar(&passTraced, "traced", false, "internal: trace the -pass run")
	flag.Parse()

	if passWorkload != "" {
		if err := runPassProcess(passWorkload, cfg.seed, passTraced, cfg.golden); err != nil {
			fatal(err)
		}
		return
	}
	if seconds < 1 || (traceFlag != 0 && traceFlag != 1) {
		fatal(fmt.Errorf("--seconds must be at least 1 and --trace 0 or 1"))
	}
	cfg.duration = time.Duration(seconds) * time.Second
	cfg.trace = traceFlag == 1
	if _, err := loadGolden(cfg.golden); err != nil {
		fatal(err)
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		fatal(err)
	}
	fmt.Printf("perfbench %s --seed %d --seconds %d --trace %d (GOMAXPROCS %d)\n",
		cfg.workload, cfg.seed, seconds, traceFlag, runtime.GOMAXPROCS(0))

	cpu0 := readHostCPU()
	var o outcome
	var err error
	switch {
	case registryIDs[cfg.workload] != nil:
		o, err = runRegistry(cfg)
	case cfg.workload == "service":
		o, err = runService(cfg)
	default:
		err = fmt.Errorf("unknown --workload %q (want long-episodes, many-platforms or service)", cfg.workload)
	}
	if err != nil {
		fatal(err)
	}
	cpu0.report(readHostCPU())
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
		zeroLayers(o.Values)
	}
	printMetrics(o.Values, defs)
	if err := emit(o, defs); err != nil {
		fatal(err)
	}
}

// hostCPU is the machine-wide CPU time split of /proc/stat, in ticks.
type hostCPU struct{ busy, steal, total uint64 }

func readHostCPU() hostCPU {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostCPU{}
	}
	f := strings.Fields(strings.SplitN(string(raw), "\n", 2)[0])
	var h hostCPU
	for i := 1; i < len(f); i++ {
		n, _ := strconv.ParseUint(f[i], 10, 64)
		switch i {
		case 1, 2, 3, 6, 7: // user, nice, system, irq, softirq
			h.busy += n
		case 8:
			h.steal += n
		}
		if i <= 8 { // guest time is already counted in user
			h.total += n
		}
	}
	return h
}

// report prints how busy the machine was since h and how much of its CPU
// time the hypervisor gave to other guests. A run whose times moved with
// a high steal share measured its neighbours, not the program.
func (h hostCPU) report(end hostCPU) {
	if d := end.total - h.total; d > 0 && h.total > 0 {
		fmt.Printf("host CPU during the run: %.1f%% busy, %.1f%% stolen by the hypervisor\n",
			100*float64(end.busy-h.busy)/float64(d), 100*float64(end.steal-h.steal)/float64(d))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// finding reports a failed operation with the commands that reproduce it:
// this run, and when given, the single program run that fails.
func finding(cfg config, what, reason, programRepro string) {
	if i := strings.IndexByte(reason, '\n'); i >= 0 {
		reason = reason[:i] // the first line names the failure; a panic adds its stack
	}
	fmt.Printf("FINDING: %s seed %d %s: %s\n  repro: bash perfbench/run.sh --workload %s --seed %d --seconds %d --trace %d\n",
		cfg.workload, cfg.seed, what, reason, cfg.workload, cfg.seed, int(cfg.duration/time.Second), btoi(cfg.trace))
	if programRepro != "" {
		fmt.Printf("  repro: %s\n", programRepro)
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// spanFile writes a traced run's spans and says where.
func spanFile(cfg config, spans []Span) {
	path := filepath.Join(cfg.out, fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.workload, cfg.seed))
	if err := writeSpans(path, spans); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return
	}
	fmt.Printf("wrote %d spans to %s\n", len(spans), path)
}
