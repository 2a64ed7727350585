package main

import (
	"encoding/json"
	"fmt"
	"math"
)

// metricDef names one printed metric and its unit. BENCHMARK.json lists
// the same names, units and directions; metrics_test.go holds the two
// lists to each other.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics of an untraced run, measured on cresd as an
// operator sees it.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"req_per_s", "1/s"},
	{"devices_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"cpu_ms_per_req", "ms"},
	{"rss_peak_mb", "MB"},
}

// perLayer are the metrics of a traced run, one or more per module.
var perLayer = []metricDef{
	{"attest.sign_us_per_device", "us"},
	{"cryptoutil.verify_us_per_device", "us"},
	{"fleet.shard_ms", "ms"},
	{"fleet.engine_build_us", "us"},
	{"fleet.merge_us", "us"},
	{"harness.parallel_efficiency", "ratio"},
	{"service.miss_overhead_ms", "ms"},
	{"store.append_us", "us"},
	{"scenario.fleet_compile_us", "us"},
	{"store.digest_us", "us"},
	{"store.get_us", "us"},
	{"service.hit_handler_us", "us"},
	{"service.transport_us", "us"},
	{"cres.swarm_cell_ms", "ms"},
	{"cres.device_build_us", "us"},
	{"hw.soc_build_us", "us"},
	{"hw.bus_ns_per_tx", "ns"},
	{"monitor.bus_ns_per_tx", "ns"},
	{"cryptoutil.ed25519_sign_us", "us"},
	{"cryptoutil.ed25519_verify_us", "us"},
	{"service.computed_per_req", "ratio"},
	{"store.open_s", "s"},
	{"store.heap_mb", "MB"},
	{"trace.overhead_pct", "%"},
}

// value is one printed metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// newResult assembles a result from measured values keyed by name. It
// fails if any metric of defs is missing or not a finite number, or if
// values holds a name defs does not list.
func newResult(defs []metricDef, vals map[string]float64, attempted, failed int) (result, error) {
	r := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]value{}}
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return r, fmt.Errorf("metric %s was not measured (%v)", d.name, v)
		}
		r.Metrics[d.name] = value{Value: v, Unit: d.unit}
	}
	if len(vals) != len(defs) {
		return r, fmt.Errorf("measured %d metrics, the run defines %d", len(vals), len(defs))
	}
	return r, nil
}

func (r result) line() string {
	b, _ := json.Marshal(r)
	return string(b)
}
