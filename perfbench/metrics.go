package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"

	"k2/internal/experiment"
	"k2/internal/trace"
)

// metricDef names one reported metric; BENCHMARK.json lists the same names.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd is what a user of the system sees, reported with tracing off.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"wall_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"hit_p50_ms", "ms", "lower"},
	{"sim_p50_ms", "ms", "lower"},
}

// spanNames are the benchmark's own spans: pass > experiment > measure,
// render, compare on the registry workloads, and arrival > submit, wait,
// terminal on the service workload.
var spanNames = []string{"pass", "experiment", "measure", "render", "compare", "arrival", "submit", "wait", "terminal"}

// perLayer is reported by the traced run. Every workload prints every
// metric; a layer a workload does not exercise reads 0 there.
var perLayer = func() []metricDef {
	var out []metricDef
	for _, d := range experiment.Registry() {
		out = append(out, metricDef{"experiment." + d.ID + ".wall_s", "s", "lower"})
	}
	for _, n := range []string{"events", "proc_switches", "scheduled", "cancelled", "engines"} {
		out = append(out, metricDef{"sim." + n, "count", "lower"})
	}
	out = append(out,
		metricDef{"sim.virtual_s", "s", "lower"},
		metricDef{"sim.episode_s", "s", "lower"},
		metricDef{"sim.events_per_s", "1/s", "higher"},
		metricDef{"core.boot_s", "s", "lower"},
	)
	for _, n := range []string{"faults", "read_faults", "write_faults", "invalidations", "claims", "resends"} {
		out = append(out, metricDef{"dsm." + n, "count", "lower"})
	}
	for _, k := range trace.Kinds() {
		out = append(out, metricDef{"trace." + k + ".events", "count", "lower"})
	}
	out = append(out,
		metricDef{"trace.overhead_s", "s", "lower"},
		metricDef{"experiment.render_s", "s", "lower"},
		metricDef{"go.alloc_mb", "MB", "lower"},
		metricDef{"go.gc_cycles", "count", "lower"},
		metricDef{"go.gc_pause_ms", "ms", "lower"},
		metricDef{"go.cpu_s", "s", "lower"},
		metricDef{"fleet.submit_p50_ms", "ms", "lower"},
		metricDef{"fleet.submit_p95_ms", "ms", "lower"},
		metricDef{"fleet.status_p50_ms", "ms", "lower"},
		metricDef{"server.queue_wait_p50_ms", "ms", "lower"},
		metricDef{"server.queue_wait_p95_ms", "ms", "lower"},
		metricDef{"server.run_p50_ms", "ms", "lower"},
		metricDef{"server.run_p95_ms", "ms", "lower"},
		metricDef{"experiment.job_wall_p50_ms", "ms", "lower"},
		metricDef{"sim.events_per_job", "count", "lower"},
		metricDef{"server.overhead_p50_ms", "ms", "lower"},
		metricDef{"server.cache_hits", "count", "higher"},
		metricDef{"server.cache_misses", "count", "lower"},
		metricDef{"server.cache_evictions", "count", "lower"},
		metricDef{"server.warm_starts", "count", "higher"},
		metricDef{"server.followup_hit_ratio", "ratio", "higher"},
		metricDef{"server.followups", "count", "higher"},
		metricDef{"server.admission_sheds", "count", "lower"},
		metricDef{"fleet.quota_sheds", "count", "lower"},
		metricDef{"server.rss_mb_per_sim_job", "MB", "lower"},
		metricDef{"loadgen.lag_p99_ms", "ms", "lower"},
		metricDef{"hit.p95_ms", "ms", "lower"},
		metricDef{"sim.p95_ms", "ms", "lower"},
		metricDef{"hit.samples", "count", "higher"},
		metricDef{"sim.samples", "count", "higher"},
	)
	for _, n := range spanNames {
		out = append(out, metricDef{"span." + n + ".self_s", "s", "lower"})
	}
	return out
}()

// outcome is what one run reports on its last line.
type outcome struct {
	Attempted int
	Failed    int
	Values    map[string]float64
}

// emit prints the run's result line: every metric of defs by name and
// unit. A metric a correct run could not measure is an error, not a zero;
// a run with failed operations still reports, with what it measured and 0
// for the rest.
func emit(o outcome, defs []metricDef) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(defs))
	for _, d := range defs {
		v, ok := o.Values[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			if o.Failed == 0 {
				return fmt.Errorf("metric %s was not measured", d.Name)
			}
			v = 0
		}
		metrics[d.Name] = value{v, d.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{o.Failed == 0 && o.Attempted > 0, o.Attempted, o.Failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(os.Stdout, string(line))
	return err
}

// zeroLayers fills every per-layer metric a workload does not measure
// with 0, the value of a layer that did no work.
func zeroLayers(vals map[string]float64) {
	for _, d := range perLayer {
		if _, ok := vals[d.Name]; !ok {
			vals[d.Name] = 0
		}
	}
}

// printMetrics prints the metrics of defs by name and unit, one a line.
func printMetrics(vals map[string]float64, defs []metricDef) {
	for _, d := range defs {
		fmt.Printf("%-34s %.6g %s\n", d.Name, vals[d.Name], d.Unit)
	}
}
