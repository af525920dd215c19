// Command perfbench is the repository's benchmark. It runs one named
// workload through the public entry points of trace, core/baseline, exp,
// load, simnet, emu and ctrl, checks every run's outputs, and prints the
// end-to-end metrics (untraced, -trace 0) or the per-layer ledger (traced,
// -trace 1) as the last line of standard output:
//
//	go run . -workload paper-closed -seed 1 -seconds 30 -trace 0
//
// Workloads (see BENCHMARK.json for why each exists):
//
//	paper-closed   classic closed-loop exp.Run of SocialTube, NetTube, PA-VoD
//	sharded-flash  exp.RunSharded SocialTube, open-loop arrivals, flash crowd
package main

import (
	"cmp"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
)

// workload is one named input set of the benchmark.
type workload struct {
	name string
	loop string // "closed" or "open"
	sim  simParams
}

func workloads() map[string]*workload {
	return map[string]*workload{
		"paper-closed":  {name: "paper-closed", loop: "closed", sim: paperClosedParams()},
		"sharded-flash": {name: "sharded-flash", loop: "open", sim: shardedFlashParams(shardedWorkers(runtime.NumCPU()))},
	}
}

// shardedWorkers is the sharded engine's worker count on an nproc-core
// machine: half the cores, at least one. Workers that fill every core share
// them with the garbage collector and wait on each other at every epoch
// barrier, so a run's wall time then follows the host's scheduling rather
// than the program; the spare cores absorb both.
func shardedWorkers(nproc int) int { return max(1, nproc/2) }

func (w *workload) rep(seed int64, traced bool, sl *spanLog) (*rep, error) {
	return simRep(w.sim, seed, traced, sl)
}

// check is the output-correctness gate of one repetition.
func (w *workload) check(r *rep) error {
	for _, res := range r.results {
		if err := checkSim(res); err != nil {
			return err
		}
	}
	return nil
}

// manifest describes the run: machine, runtime, revision and workload.
type manifest struct {
	Workload   string `json:"workload"`
	Loop       string `json:"loop"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      int    `json:"trace"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOGC       string `json:"gogc"`
	GoVersion  string `json:"goVersion"`
	Revision   string `json:"vcsRevision"`
	Modified   string `json:"vcsModified"`
	Params     any    `json:"params"`
}

func newManifest(w *workload, seed int64, seconds, trace int) manifest {
	m := manifest{Workload: w.name, Loop: w.loop, Seed: seed, Seconds: seconds, Trace: trace,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GOGC: os.Getenv("GOGC"),
		GoVersion: runtime.Version(), Revision: "unknown", Modified: "unknown", Params: w.sim}
	if m.GOGC == "" {
		m.GOGC = "100"
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				m.Revision = s.Value
			case "vcs.modified":
				m.Modified = s.Value
			}
		}
	}
	return m
}

// endToEndUnits are the untraced run's metrics and their units.
var endToEndUnits = map[string]string{
	"setup_s":        "s",
	"requests_per_s": "req/s",
	"cpu_us_per_req": "us",
	"peak_heap_mb":   "MB",
}

// metric is one printed value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: paper-closed or sharded-flash")
	seed := fs.Int64("seed", 1, "workload seed; every input derives from it")
	seconds := fs.Int("seconds", 30, "how long one run measures")
	traceMode := fs.Int("trace", 0, "0 prints end-to-end metrics, 1 the per-layer ledger")
	outDir := fs.String("out", ".bench_out", "directory for the traced run's span file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads()[*name]
	switch {
	case !ok:
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want paper-closed or sharded-flash)\n", *name)
		return 2
	case *seconds < 1:
		fmt.Fprintf(stderr, "perfbench: -seconds must be at least 1, got %d\n", *seconds)
		return 2
	case *traceMode != 0 && *traceMode != 1:
		fmt.Fprintf(stderr, "perfbench: -trace must be 0 or 1, got %d\n", *traceMode)
		return 2
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	man := newManifest(w, *seed, *seconds, *traceMode)
	manJSON, err := json.Marshal(man)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: manifest: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "manifest %s\n", manJSON)
	budget := int64(*seconds) * 1e9
	var res *result
	if *traceMode == 0 {
		res = measure(w, *seed, budget, stdout)
	} else {
		res = traced(w, *seed, budget, *outDir, manJSON, stdout)
	}
	if res == nil {
		fmt.Fprintln(stderr, "perfbench: no repetition completed")
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: result: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// attempt runs repetition k and applies the correctness gate; a
// repetition that errors or fails the gate is a failed operation.
func attempt(w *workload, seed int64, k int, tracedRep bool, sl *spanLog, out io.Writer) (*rep, error) {
	p0 := takePoint()
	r, err := w.rep(seed, tracedRep, sl)
	if err == nil {
		err = w.check(r)
	}
	if err != nil {
		fmt.Fprintf(out, "rep %d traced=%v FAILED: %v\n", k, tracedRep, err)
		return nil, err
	}
	ph := between(p0, takePoint())
	r.stealFrac = ph.stealS / (ph.wallS * float64(runtime.NumCPU()))
	fmt.Fprintf(out, "rep %d traced=%v setup %.3fs run %.3fs%s requests %d cpu %.3fs (%.3fs stolen) steal %.1f%% peak %.1fMB sim_digest %s\n",
		k, tracedRep, r.setup.wallS, r.runWallS, r.perProto, r.requests, r.run.cpuS, r.run.stealS, 100*r.stealFrac, r.peakMB, r.digest)
	return r, nil
}

// maxSteal is the share of the machine's CPU time the hypervisor may take
// during a repetition before the repetition is set aside: its timings then
// measure the host's other guests, not the program. With one busy worker on
// two cores, 2% of the machine's time is 4% of the worker's core, and
// repetitions with 3.6–5.1% steal ran 15–19% slower than one without.
// Set-aside repetitions still pass the correctness gate.
const maxSteal = 0.02

// minReps is how many repetitions a run takes at least, so the digest is
// always checked across repetitions.
const minReps = 2

// fits reports whether to start another repetition: one as long as the
// longest so far, started now, would end nearer the budget than the run
// ends without it. A run so lasts its budget give or take half a
// repetition, however slow the host is.
func fits(start, longest, budget int64) bool { return nowNS()-start+longest/2 < budget }

// unstolen returns the repetitions with at most maxSteal, or the minReps
// least stolen ones when fewer qualify.
func unstolen(all []*rep) []*rep {
	s := slices.Clone(all)
	slices.SortStableFunc(s, func(a, b *rep) int { return cmp.Compare(a.stealFrac, b.stealFrac) })
	n := 0
	for n < len(s) && s[n].stealFrac <= maxSteal {
		n++
	}
	return s[:max(n, min(minReps, len(s)))]
}

// measure repeats the untraced workload for the budget (at least minReps
// times) and reports each end-to-end metric as the median over the
// repetitions the hypervisor left alone.
func measure(w *workload, seed int64, budget int64, out io.Writer) *result {
	res := &result{Correct: true}
	var all []*rep
	start := nowNS()
	var longest int64
	for k := 0; k < minReps || fits(start, longest, budget); k++ {
		res.Attempted++
		t0 := nowNS()
		r, err := attempt(w, seed, k, false, nil, out)
		longest = max(longest, nowNS()-t0)
		if err != nil {
			res.Failed++
			res.Correct = false
			continue
		}
		if len(all) > 0 && r.digest != all[0].digest {
			fmt.Fprintf(out, "sim_digest changed across repetitions: %s != %s\n", r.digest, all[0].digest)
			res.Failed++
			res.Correct = false
		}
		r.release()
		all = append(all, r)
	}
	if len(all) == 0 {
		return nil
	}
	reps := unstolen(all)
	if n := len(all) - len(reps); n > 0 {
		fmt.Fprintf(out, "%d repetitions set aside (hypervisor steal > %.0f%%)\n", n, 100*maxSteal)
	}
	var setup, rps, cpu, heap []float64
	for _, r := range reps {
		setup = append(setup, r.setup.wallS)
		rps = append(rps, float64(r.requests)/r.runWallS)
		cpu = append(cpu, r.run.cpuS*1e6/float64(r.requests))
		heap = append(heap, r.peakMB)
	}
	fmt.Fprintf(out, "sim_digest %s, medians over %d of %d repetitions\n", reps[0].digest, len(reps), len(all))
	values := map[string]float64{
		"setup_s":        median(setup),
		"requests_per_s": median(rps),
		"cpu_us_per_req": median(cpu),
		"peak_heap_mb":   median(heap),
	}
	res.Metrics = make(map[string]metric, len(values))
	for name, v := range values {
		res.Metrics[name] = metric{v, endToEndUnits[name]}
	}
	return res
}

// traced runs untraced/traced repetition pairs of the same seed for the
// budget (at least one pair), gates both and their digests, and
// reports the per-layer ledger of the last pair; bench.trace_overhead is
// the median over pairs of traced run wall over untraced run wall, minus 1.
func traced(w *workload, seed int64, budget int64, outDir string, manJSON []byte, out io.Writer) *result {
	res := &result{Correct: true}
	var overheads []float64
	var lastU, lastT *rep
	var lastLog *spanLog
	start := nowNS()
	var longest int64
	for (lastT == nil && res.Attempted < 2) || fits(start, longest, budget) {
		res.Attempted += 2
		t0 := nowNS()
		u, errU := attempt(w, seed, 0, false, nil, out)
		sl := &spanLog{}
		t, errT := attempt(w, seed, 0, true, sl, out)
		longest = max(longest, nowNS()-t0)
		if errU != nil || errT != nil {
			res.Failed += btoi(errU != nil) + btoi(errT != nil)
			res.Correct = false
			continue
		}
		if u.digest != t.digest {
			fmt.Fprintf(out, "traced sim_digest %s != untraced %s\n", t.digest, u.digest)
			res.Failed++
			res.Correct = false
		}
		overheads = append(overheads, t.runWallS/u.runWallS-1)
		// The ledger needs only the untraced repetition's scalars.
		u.release()
		if lastT != nil {
			lastT.release()
		}
		lastU, lastT, lastLog = u, t, sl
	}
	if lastT == nil {
		return nil
	}
	m, err := ledger(w, seed, lastU, lastT, lastLog)
	if err != nil {
		fmt.Fprintf(out, "ledger FAILED: %v\n", err)
		return nil
	}
	m["bench.trace_overhead"] = median(overheads)
	fmt.Fprintf(out, "sim_digest %s (traced and untraced)\n", lastT.digest)
	self, _ := selfTimes(lastLog.spans)
	for _, line := range selfByLayer(lastLog.spans, self) {
		fmt.Fprintln(out, "self", line)
	}
	if path, err := writeSpans(outDir, w.name, manJSON, lastLog.spans, self); err != nil {
		fmt.Fprintf(out, "span file not written: %v\n", err)
	} else {
		fmt.Fprintf(out, "spans %d written to %s\n", len(lastLog.spans), path)
	}
	res.Metrics = make(map[string]metric, len(layerMetrics))
	for _, lm := range layerMetrics {
		res.Metrics[lm.name] = metric{m[lm.name], lm.unit}
	}
	return res
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
