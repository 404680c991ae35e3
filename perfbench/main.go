// Command perfbench is diggsim's benchmark. It drives one of three
// workloads against real diggd processes over loopback through the
// /v1 SDK (httpapi.Client), checks the servers' outputs, and prints the
// end-to-end metrics; with --trace 1 it instead builds the same stacks
// in-process, records spans around calls into each layer, and prints
// the per-layer metrics. See README.md beside this file.
//
// Usage (run.py builds diggd and this command, then runs it):
//
//	perfbench --diggd BIN --work DIR --workload read-zipf|write-fresh|live-mixed
//	          --seed N --seconds S --trace 0|1
//
// The last line of standard output is one JSON object:
// {"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}.
// A run whose correctness checks fail reports no metrics and exits 1.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

func main() {
	workload := flag.String("workload", "", "read-zipf, write-fresh or live-mixed")
	seed := flag.Uint64("seed", 1, "workload seed: every generated request derives from it")
	seconds := flag.Float64("seconds", 10, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 runs the traced in-process stacks and reports per-layer metrics")
	diggd := flag.String("diggd", "", "diggd binary to benchmark")
	work := flag.String("work", "", "scratch directory for logs and data directories")
	flag.Parse()

	switch *workload {
	case "read-zipf", "write-fresh", "live-mixed":
	default:
		fatalf("unknown workload %q", *workload)
	}
	e := env{diggd: *diggd, work: *work, seed: *seed, seconds: time.Duration(*seconds * float64(time.Second))}
	if e.work == "" || e.seconds <= 0 || (*trace != 0 && *trace != 1) || (*trace == 0 && e.diggd == "") {
		fatalf("need --work, --seconds > 0, --trace 0 or 1, and (untraced) --diggd")
	}
	// Data directories left by an earlier run would be recovered
	// instead of created; every run starts from an empty work dir.
	if err := os.RemoveAll(e.work); err != nil {
		fatalf("clearing work dir: %v", err)
	}
	defer os.RemoveAll(e.work)
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()

	if *trace == 0 {
		// The load process's own garbage collector would otherwise run
		// every few milliseconds on its small heap and add its pauses
		// to the servers' latency. Collect only past a fixed heap size.
		// The traced run leaves it alone: its servers share the process.
		debug.SetGCPercent(-1)
		debug.SetMemoryLimit(256 << 20)
	}
	printHost(e, *workload, *trace)
	var o *outcome
	var err error
	switch {
	case *trace == 1:
		o, err = traced(ctx, e, *workload)
	case *workload == "read-zipf":
		o, err = readZipf(ctx, e)
	case *workload == "write-fresh":
		o, err = writeFresh(ctx, e)
	default:
		o, err = liveMixed(ctx, e)
	}
	if err != nil {
		fatalf("%s: %v", *workload, err)
	}
	for _, line := range o.report {
		fmt.Println(line)
	}
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{Correct: len(o.failedChecks) == 0, Attempted: max(o.t.Attempted, 1), Failed: o.t.Failed, Metrics: map[string]jsonMetric{}}
	for _, c := range o.failedChecks {
		fmt.Println("CHECK FAILED:", c)
	}
	if out.Correct {
		for _, m := range o.metrics {
			fmt.Printf("%-28s %14.4f %s\n", m.name, m.value, m.unit)
			out.Metrics[m.name] = jsonMetric{m.value, m.unit}
		}
	}
	b, err := json.Marshal(out)
	if err != nil {
		fatalf("encoding result: %v", err)
	}
	fmt.Println(string(b))
	if !out.Correct {
		os.Exit(1)
	}
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printHost records the facts a reader needs to compare two runs.
func printHost(e env, workload string, trace int) {
	model := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if v, ok := strings.CutPrefix(line, "model name"); ok {
				model = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(v), ":"))
				break
			}
		}
	}
	fmt.Printf("host: nproc=%d GOMAXPROCS=%d go=%s cpu=%q\n", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), model)
	fmt.Printf("run: workload=%s seed=%d seconds=%v trace=%d setups=%d\n", workload, e.seed, e.seconds, trace, setups)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}
