// Command socialtube-sim runs the trace-driven simulation evaluation (the
// PeerSim experiments): Figs. 16(a), 17(a), 18(a), Table I and the
// churn-resilience comparison.
//
// Usage:
//
//	socialtube-sim -fig 16a
//	socialtube-sim -fig all -scale paper
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"github.com/socialtube/socialtube/internal/figures"
	"github.com/socialtube/socialtube/internal/load"
	"github.com/socialtube/socialtube/internal/obs"
	"github.com/socialtube/socialtube/internal/trace"
)

// runScaleSweep runs the scalability sweep (-fig scale): the smoke sizes
// at -scale small, 10k..1M users at -scale paper, the single 10M-user
// point at -scale 10m. Per-point results are appended to the JSONL bench
// log when benchOut is non-empty. shards > 0 routes every point through
// the community-sharded engine with that many workers; users > 0 replaces
// the preset populations with that single size (the shard-count
// comparison runs the 1M point alone this way).
func runScaleSweep(scaleName string, seed int64, benchOut string, shards, users int) error {
	var sw figures.ScaleSweep
	switch scaleName {
	case "small":
		sw = figures.SmokeScaleSweep()
	case "paper":
		sw = figures.DefaultScaleSweep()
	case "10m":
		sw = figures.TenMScaleSweep()
	default:
		return fmt.Errorf("unknown scale %q (want small, paper or 10m)", scaleName)
	}
	sw.Seed = seed
	sw.Shards = shards
	if users > 0 {
		sw.Sizes = []int{users}
	}
	sw.Progress = func(msg string) { fmt.Println("# " + msg) }
	f, err := figures.RunScaleSweep(sw)
	if err != nil {
		return err
	}
	fmt.Println(f)
	if benchOut != "" {
		if err := figures.AppendPoints(benchOut, f.Points); err != nil {
			return err
		}
		fmt.Printf("appended %d points to %s\n", len(f.Points), benchOut)
	}
	return nil
}

// loadFlags carries the -fig load knobs from the flag set to the sweep.
type loadFlags struct {
	mode  string
	rps   string
	dur   time.Duration
	cap   int
	flash int
}

// runLoadSweep runs the open-loop load figure (-fig load): offered-RPS
// columns for the three protocols against the bounded-queue server, with
// per-cell points appended to the JSONL bench log. shards > 0 routes
// every cell through the community-sharded engine; users > 0 overrides
// the preset population.
func runLoadSweep(scaleName string, seed int64, benchOut string, shards, users int, lf loadFlags) error {
	var sw figures.LoadSweep
	switch scaleName {
	case "small":
		sw = figures.DefaultLoadSweep()
	case "paper":
		sw = figures.PaperLoadSweep()
	default:
		return fmt.Errorf("unknown scale %q (-fig load wants small or paper)", scaleName)
	}
	sw.Seed = seed
	sw.Shards = shards
	if users > 0 {
		sw.Users = users
	}
	if lf.mode != "" {
		sw.Mode = load.Mode(lf.mode)
	}
	if lf.rps != "" {
		sw.RPS = sw.RPS[:0]
		for _, col := range strings.Split(lf.rps, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(col), 64)
			if err != nil {
				return fmt.Errorf("-load-rps %q: %w", lf.rps, err)
			}
			sw.RPS = append(sw.RPS, v)
		}
	}
	if lf.dur > 0 {
		sw.Duration = lf.dur
	}
	if lf.cap >= 0 {
		sw.QueueCap = lf.cap
	}
	if lf.flash >= 0 {
		sw.Flash = &load.FlashCrowd{Channel: lf.flash, At: sw.Duration / 4, For: sw.Duration / 4}
	}
	sw.Progress = func(msg string) { fmt.Println("# " + msg) }
	f, err := figures.RunLoad(sw)
	if err != nil {
		return err
	}
	fmt.Println(f)
	if benchOut != "" {
		if err := figures.AppendPoints(benchOut, f.Points); err != nil {
			return err
		}
		fmt.Printf("appended %d points to %s\n", len(f.Points), benchOut)
	}
	return nil
}

// dumpJSON runs the three protocols through the standard workload and
// prints one JSON object with their raw result summaries.
func dumpJSON(s figures.Scale, tr *trace.Trace) error {
	results, err := figures.RunAllProtocols(s, tr)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(results)
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "socialtube-sim:", err)
		os.Exit(1)
	}
}

// checkTrace validates a JSONL event trace against the golden schema and
// prints the per-kind event counts (the -trace-check path CI runs against
// a freshly generated trace).
func checkTrace(path string) error {
	schema, err := obs.GoldenSchema()
	if err != nil {
		return err
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	counts, err := schema.ValidateJSONL(f)
	if err != nil {
		return err
	}
	total := 0
	for _, n := range counts {
		total += n
	}
	if total == 0 {
		return fmt.Errorf("%s: trace is empty", path)
	}
	fmt.Printf("%s: %d events valid against the golden schema %v\n", path, total, counts)
	return nil
}

func run(args []string) (retErr error) {
	fs := flag.NewFlagSet("socialtube-sim", flag.ContinueOnError)
	var (
		fig        = fs.String("fig", "all", "figure to regenerate: 16a, 17a, 18a, 15, churn, timeline, scale, load, table1 or all")
		scale      = fs.String("scale", "small", "workload scale: small or paper (-fig scale also takes 10m)")
		seed       = fs.Int64("seed", 1, "experiment seed")
		shards     = fs.Int("shards", 0, "with -fig scale or -fig load, run each point on the community-sharded engine with this many workers (0 = classic single-loop engine)")
		users      = fs.Int("users", 0, "with -fig scale or -fig load, replace the preset population with this single size (0 = preset)")
		benchOut   = fs.String("bench-out", "", "with -fig scale, timeline or load, append per-point results to this JSONL file (default BENCH_<fig>.json; empty string keeps the default, 'none' disables)")
		loadMode   = fs.String("load-mode", "", "with -fig load, the profile shape: steady, ramp, sweep, burst or diurnal (empty = preset)")
		loadRPS    = fs.String("load-rps", "", "with -fig load, comma-separated offered-RPS columns (empty = preset)")
		loadDur    = fs.Duration("load-dur", 0, "with -fig load, each column's offered window in virtual time (0 = preset)")
		loadCap    = fs.Int("load-cap", -1, "with -fig load, the server admission-queue capacity (0 = unbounded, -1 = preset)")
		loadFlash  = fs.Int("load-flash", -1, "with -fig load, layer a flash crowd on this channel id (-1 = off)")
		jsonDump   = fs.Bool("json", false, "run the three protocols once and dump raw results as JSON")
		traceOut   = fs.String("trace-out", "", "write every protocol event as JSON Lines to this file")
		tracePrint = fs.String("trace-print", "", "pretty-print an existing JSONL event trace and exit")
		traceSpans = fs.String("trace-spans", "", "pretty-print an existing JSONL event trace grouped by request span and exit")
		traceMax   = fs.Int("trace-max", 0, "with -trace-print/-trace-spans, stop after this many events/spans (0 = all)")
		traceCheck = fs.String("trace-check", "", "validate an existing JSONL event trace against the golden schema and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Fail fast on nonsensical counts before any trace is built.
	if *shards < 0 {
		return fmt.Errorf("-shards must be ≥ 0, got %d", *shards)
	}
	if *users < 0 {
		return fmt.Errorf("-users must be ≥ 0, got %d", *users)
	}
	// The bench log's default name follows the figure; "none" disables.
	switch {
	case *benchOut == "" && *fig == "timeline":
		*benchOut = "BENCH_timeline.json"
	case *benchOut == "" && *fig == "load":
		*benchOut = "BENCH_load.json"
	case *benchOut == "":
		*benchOut = "BENCH_scale.json"
	case *benchOut == "none":
		*benchOut = ""
	}
	if *traceCheck != "" {
		return checkTrace(*traceCheck)
	}
	if *tracePrint != "" {
		f, err := os.Open(*tracePrint)
		if err != nil {
			return err
		}
		defer f.Close()
		n, err := obs.Pretty(f, os.Stdout, *traceMax)
		if err != nil {
			return err
		}
		fmt.Printf("# %d events\n", n)
		return nil
	}
	if *traceSpans != "" {
		f, err := os.Open(*traceSpans)
		if err != nil {
			return err
		}
		defer f.Close()
		n, err := obs.PrettySpans(f, os.Stdout, *traceMax)
		if err != nil {
			return err
		}
		fmt.Printf("# %d spans\n", n)
		return nil
	}
	// The scale sweep builds its own shard traces (one per population),
	// so it branches off before the single-figure trace is generated.
	if *fig == "scale" {
		return runScaleSweep(*scale, *seed, *benchOut, *shards, *users)
	}
	// The load sweep likewise owns its trace sizing.
	if *fig == "load" {
		return runLoadSweep(*scale, *seed, *benchOut, *shards, *users, loadFlags{
			mode: *loadMode, rps: *loadRPS, dur: *loadDur, cap: *loadCap, flash: *loadFlash,
		})
	}
	if *shards > 0 || *users > 0 {
		return fmt.Errorf("-shards and -users apply to -fig scale and -fig load only")
	}
	if *loadMode != "" || *loadRPS != "" || *loadDur != 0 || *loadCap >= 0 || *loadFlash >= 0 {
		return fmt.Errorf("-load-* flags apply to -fig load only")
	}
	if *scale == "10m" {
		return fmt.Errorf("-scale 10m applies to -fig scale only")
	}
	var s figures.Scale
	switch *scale {
	case "small":
		s = figures.SmallScale()
	case "paper":
		s = figures.PaperScale()
	default:
		return fmt.Errorf("unknown scale %q (want small or paper)", *scale)
	}
	s.Seed = *seed
	tr, err := s.BuildTrace()
	if err != nil {
		return err
	}
	fmt.Printf("trace: %d channels, %d videos, %d users (scale %s, seed %d)\n\n",
		len(tr.Channels), len(tr.Videos), len(tr.Users), *scale, *seed)

	if *traceOut != "" {
		j, err := obs.OpenJSONL(*traceOut)
		if err != nil {
			return err
		}
		s.Tracer = j
		defer func() {
			cerr := j.Close()
			if retErr == nil {
				retErr = cerr
			}
			if retErr == nil {
				fmt.Printf("\ntrace: %d events -> %s\n", j.Total(), *traceOut)
			}
		}()
	}

	if *jsonDump {
		return dumpJSON(s, tr)
	}

	show := func(id string) error {
		switch id {
		case "15":
			fmt.Println(figures.Fig15())
		case "16a":
			t, err := figures.Fig16a(s, tr)
			if err != nil {
				return err
			}
			fmt.Println(t)
		case "17a":
			t, err := figures.Fig17a(s, tr)
			if err != nil {
				return err
			}
			fmt.Println(t)
		case "18a":
			t, err := figures.Fig18a(s, tr)
			if err != nil {
				return err
			}
			fmt.Println(t)
		case "churn":
			t, err := figures.FigChurn(s, tr)
			if err != nil {
				return err
			}
			fmt.Println(t)
		case "timeline":
			t, err := figures.RunTimeline(s, tr)
			if err != nil {
				return err
			}
			fmt.Println(t)
			if *benchOut != "" {
				if err := figures.AppendPoints(*benchOut, t.Points); err != nil {
					return err
				}
				fmt.Printf("appended %d points to %s\n", len(t.Points), *benchOut)
			}
		case "table1":
			fmt.Println(figures.Table1(s, tr))
		default:
			return fmt.Errorf("unknown figure %q (want 15, 16a, 17a, 18a, churn, timeline, scale, load, table1 or all)", id)
		}
		return nil
	}
	if *fig == "all" {
		for _, id := range []string{"table1", "15", "16a", "17a", "18a", "churn"} {
			if err := show(id); err != nil {
				return err
			}
		}
		return nil
	}
	return show(*fig)
}
