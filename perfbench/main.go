// Command perfbench is the repository's benchmark: three closed-loop
// workloads (paper_figures, ncore_cold, hot_hits) that each check their
// outputs and print end-to-end metrics, plus a traced mode that times the
// calls into each layer (workload build, DSWP, lowering, sim kernel,
// oracle check, experiment pool, serve, client) from this package's own
// code. See README.md for the workloads, the metrics and which layer
// metric should move which end-to-end metric.
//
// Usage (from the repository root, through run.sh, which builds it):
//
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// processStart approximates process start: package initialization runs
// before main, after the Go runtime is up (well under a millisecond).
var processStart = time.Now()

// A run measures set-up once in the measuring process and again in child
// processes that set up and exit, so setup_s is a median of whole-process
// set-ups: at least setupMinSamples, then more while the set-ups so far
// took less than setupBudget in total, up to setupMaxSamples. Cheap
// set-ups (10 to 30 ms, where one process's set-up time spreads by a
// third of its median) get many samples; hot_hits' pre-warm gets a few.
const (
	setupMinSamples = 5
	setupMaxSamples = 51
	setupBudget     = 3 * time.Second
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run is the state of one benchmark invocation.
type run struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	out      string // directory for trace files
	nproc    int

	attempted, failed int
	logged            int
	problems          []string
	metrics           map[string]metric
	ledger            *ledger
}

// set records a metric; with tracing off only end-to-end metrics are set,
// with tracing on only per-layer ones.
func (r *run) set(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.problem("metric %s is not a finite number", name)
		v = 0
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// problem records a correctness failure that is not tied to one request
// (a count that moved between passes, an exclusion rule that does not
// match the API, a composed run that differs from the untraced one).
func (r *run) problem(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if len(r.problems) < 50 {
		r.problems = append(r.problems, msg)
	}
	fmt.Fprintln(os.Stderr, "perfbench: CHECK FAILED:", msg)
}

// fail counts one failed operation (an error, a wrong output or wrong
// provenance) and logs it.
func (r *run) fail(format string, args ...any) {
	r.failed++
	r.logFailure(fmt.Sprintf(format, args...))
}

// logFailure logs the first few failures to standard error.
func (r *run) logFailure(msg string) {
	if r.logged < 10 {
		r.logged++
		fmt.Fprintln(os.Stderr, "perfbench: failed:", msg)
	}
}

var workloadNames = []string{"paper_figures", "ncore_cold", "hot_hits"}

func main() {
	workload := flag.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := flag.Int64("seed", 1, "seed for the workload's inputs")
	seconds := flag.Int("seconds", 20, "how long one run measures")
	traceFlag := flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
	out := flag.String("out", ".bench_build", "directory for trace files")
	setupOnly := flag.Bool("setup-only", false, "set up, print the set-up time and exit (used for set-up samples)")
	printRefs := flag.Bool("print-figure-refs", false, "print the sha256 of every experiment's rendered text and exit")
	flag.Parse()

	if os.Getenv("HFSTREAM_NO_FASTFORWARD") != "" {
		fatalf("HFSTREAM_NO_FASTFORWARD is set; the benchmark measures the fast-forwarding kernel only")
	}
	if *printRefs {
		if err := printFigureRefs(); err != nil {
			fatalf("%v", err)
		}
		return
	}
	if !slices.Contains(workloadNames, *workload) {
		fatalf("unknown workload %q (have %s)", *workload, strings.Join(workloadNames, ", "))
	}
	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fatalf("need --seconds >= 1 and --trace 0 or 1")
	}
	r := &run{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		trace:    *traceFlag == 1,
		out:      *out,
		nproc:    runtime.NumCPU(),
		metrics:  map[string]metric{},
	}
	if *setupOnly {
		env, err := setup(r.workload, r.nproc)
		if err != nil {
			fatalf("setup: %v", err)
		}
		d := time.Since(processStart)
		if err := env.close(); err != nil {
			fatalf("teardown: %v", err)
		}
		fmt.Printf("setup_s=%v\n", d.Seconds())
		return
	}

	printEnv(r)
	env, err := setup(r.workload, r.nproc)
	if err != nil {
		fatalf("setup: %v", err)
	}
	setupTimes := []float64{time.Since(processStart).Seconds()}
	if !r.trace {
		if setupTimes, err = childSetups(r, setupTimes); err != nil {
			fatalf("setup samples: %v", err)
		}
	}
	if r.ledger, err = openLedger(r.out); err != nil {
		fatalf("ledger: %v", err)
	}

	switch r.workload {
	case "paper_figures":
		runPaperFigures(r, env)
	case "ncore_cold":
		runNcoreCold(r, env)
	case "hot_hits":
		runHotHits(r, env)
	}
	if err := env.close(); err != nil {
		r.problem("teardown: %v", err)
	}
	if err := r.ledger.save(); err != nil {
		r.problem("save ledger: %v", err)
	}
	if !r.trace {
		r.set("setup_s", "s", median(setupTimes))
		r.set("max_rss_mb", "MB", maxRSSMB())
		if r.attempted > 0 {
			r.set("success_rate", "ratio", float64(r.attempted-r.failed)/float64(r.attempted))
		}
	}
	if r.attempted == 0 {
		r.problem("no operation was attempted")
		r.attempted = 1
		r.failed = 1
	}
	res := result{
		Correct:   len(r.problems) == 0 && r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   r.metrics,
	}
	buf, err := json.Marshal(res)
	if err != nil {
		fatalf("encode result: %v", err)
	}
	fmt.Println(string(buf))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

// printEnv records the machine and mode every run was measured under.
func printEnv(r *run) {
	env := map[string]any{
		"workload":     r.workload,
		"seed":         r.seed,
		"seconds":      r.seconds.Seconds(),
		"trace":        r.trace,
		"nproc":        r.nproc,
		"gomaxprocs":   runtime.GOMAXPROCS(0),
		"go_version":   runtime.Version(),
		"fast_forward": "on",
		"goos_goarch":  runtime.GOOS + "/" + runtime.GOARCH,
	}
	buf, _ := json.Marshal(map[string]any{"env": env}) // a map of plain values always marshals
	fmt.Println(string(buf))
}

// childSetups runs child processes that each set up the workload and
// exit, one after another, and appends the set-up time each reported to
// samples until the sampling rule above is met.
func childSetups(r *run, samples []float64) ([]float64, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	total := 0.0
	for _, v := range samples {
		total += v
	}
	for len(samples) < setupMaxSamples && (len(samples) < setupMinSamples || total < setupBudget.Seconds()) {
		cmd := exec.Command(self, "-setup-only", "-workload", r.workload,
			"-seed", strconv.FormatInt(r.seed, 10), "-out", r.out)
		cmd.Stderr = os.Stderr
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			return nil, err
		}
		if err := cmd.Start(); err != nil {
			return nil, err
		}
		var v float64
		var found bool
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if s, ok := strings.CutPrefix(sc.Text(), "setup_s="); ok {
				v, err = strconv.ParseFloat(s, 64)
				found = err == nil
			}
		}
		if err := cmd.Wait(); err != nil {
			return nil, fmt.Errorf("setup child: %w", err)
		}
		if !found {
			return nil, errors.New("setup child printed no setup_s")
		}
		samples = append(samples, v)
		total += v
	}
	return samples, nil
}

// maxRSSMB is the peak resident set size of this process in MiB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// phases splits the run: untraced runs measure for the whole --seconds;
// traced runs measure half untraced and half traced, so the difference
// is the tracing overhead.
func (r *run) phases() (untraced, traced time.Duration) {
	if !r.trace {
		return r.seconds, 0
	}
	return r.seconds / 2, r.seconds / 2
}

// repeat runs pass at least once and again while another pass of the
// last one's length still fits in d.
func repeat(d time.Duration, pass func()) {
	start := time.Now()
	for {
		t := time.Now()
		pass()
		if time.Since(start)+time.Since(t) > d {
			return
		}
	}
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	return (s[(n-1)/2] + s[n/2]) / 2
}

// latencyStats summarizes one batch of per-operation latencies: the
// median and the tail, taken as the highest percentile with at least ten
// samples beyond it.
type latencyStats struct {
	p50, tail time.Duration
	tailPct   float64
	n         int
}

func summarize(lat []time.Duration) latencyStats {
	if len(lat) == 0 {
		return latencyStats{}
	}
	s := slices.Clone(lat)
	slices.Sort(s)
	n := len(s)
	idx := max(n-11, 0)
	return latencyStats{p50: (s[(n-1)/2] + s[n/2]) / 2, tail: s[idx], tailPct: 100 * float64(idx+1) / float64(n), n: n}
}

// setLatency reports p50_ms and tail_ms as medians over batches, each
// batch summarized on its own so the tail percentile stays the same
// whatever the number of batches, and prints the tail's percentile and
// sample count.
func (r *run) setLatency(batches []latencyStats) {
	var p50, tail []float64
	pct, n := 0.0, 0
	for _, b := range batches {
		if b.n == 0 {
			continue
		}
		p50 = append(p50, ms(b.p50))
		tail = append(tail, ms(b.tail))
		pct, n = b.tailPct, b.n
	}
	fmt.Printf("latency: p50 and tail are medians over %d batches; tail = p%.2f of %d samples per batch\n",
		len(p50), pct, n)
	r.set("p50_ms", "ms", median(p50))
	r.set("tail_ms", "ms", median(tail))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
