// Command perfbench is cresd's benchmark. It builds on the real
// service: an untraced run starts cmd/cresd as its own process on a
// seeded result-store history and drives one closed-loop workload at it
// over loopback, checking every response; a traced run replays the same
// inputs in process, through service.Server.Handler() and the public
// calls of each layer, and reports per-layer self times.
//
// Run it from the repository root through perfbench/run.sh, which
// builds cresd and this command first:
//
//	bash perfbench/run.sh --workload appraise-hot --seed 1 --seconds 45 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. See README.md for the
// workloads, the metrics and what each layer metric should move.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

func main() {
	var (
		cfg     config
		seconds int
		trace   int
	)
	flag.StringVar(&cfg.workload, "workload", "", "workload: appraise-hot or topology-pair")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.IntVar(&seconds, "seconds", 45, "length of the timed phase in seconds")
	flag.IntVar(&trace, "trace", 0, "1 replays the workload in process and reports per-layer metrics")
	flag.StringVar(&cfg.cresd, "cresd", filepath.Join(".bench_build", "bin", "cresd"), "cresd binary")
	flag.StringVar(&cfg.workDir, "work", filepath.Join(".bench_build", "perfbench"), "scratch directory")
	flag.Parse()

	valid := false
	for _, w := range workloads {
		valid = valid || w == cfg.workload
	}
	if !valid || seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: want --workload one of %v, --seconds >= 1 and --trace 0 or 1\n", workloads)
		os.Exit(2)
	}
	cfg.seconds = time.Duration(seconds) * time.Second
	cfg.parallel = min(2, runtime.NumCPU())
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}

	var res result
	var err error
	if trace == 1 {
		res, err = runTraced(cfg)
	} else {
		res, err = runUntraced(cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(res.line())
}
