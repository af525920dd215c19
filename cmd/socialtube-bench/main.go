// Command socialtube-bench regenerates every table and figure of the
// paper's evaluation in one run: the Section III trace analysis (Figs.
// 2–13), the analytical models (Fig. 15, §IV-B), the simulation evaluation
// (Figs. 16a/17a/18a, Table I, churn resilience), the open-loop load
// sweep (offered RPS vs startup delay and shed rate, BENCH_load.json)
// and the TCP emulation (Figs. 16b/17b/18b, tracker-outage resilience).
//
// Usage:
//
//	socialtube-bench                 # small scale, seconds
//	socialtube-bench -scale paper    # Table I scale, minutes
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/socialtube/socialtube/internal/figures"
	"github.com/socialtube/socialtube/internal/metrics"
	"github.com/socialtube/socialtube/internal/obs"
	"github.com/socialtube/socialtube/internal/trace"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "socialtube-bench:", err)
		os.Exit(1)
	}
}

func run(args []string) (retErr error) {
	fs := flag.NewFlagSet("socialtube-bench", flag.ContinueOnError)
	var (
		scale     = fs.String("scale", "small", "workload scale: small or paper")
		seed      = fs.Int64("seed", 1, "experiment seed")
		skipEmu   = fs.Bool("skip-emu", false, "skip the TCP emulation figures")
		skipScale = fs.Bool("skip-scale", false, "skip the small-N scalability sweep")
		skipLoad  = fs.Bool("skip-load", false, "skip the open-loop load sweep")
		shards    = fs.Int("shards", 0, "run the scalability sweep on the community-sharded engine with this many workers (0 = classic single-loop engine)")
		benchOut  = fs.String("bench-out", "BENCH_scale.json", "append scale-sweep points to this JSONL file (empty disables)")
		failOut   = fs.String("failover-out", "BENCH_failover.json", "append the failover, outage-shard and takeover points to this JSONL file (empty disables)")
		tlOut     = fs.String("timeline-out", "BENCH_timeline.json", "append telemetry-timeline points to this JSONL file (empty disables)")
		loadOut   = fs.String("load-out", "BENCH_load.json", "append open-loop load points to this JSONL file (empty disables)")
		traceOut  = fs.String("trace-out", "", "write simulation protocol events as JSON Lines to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *shards < 0 {
		return fmt.Errorf("-shards must be ≥ 0, got %d", *shards)
	}
	var s figures.Scale
	switch *scale {
	case "small":
		s = figures.SmallScale()
	case "paper":
		s = figures.PaperScale()
	default:
		return fmt.Errorf("unknown scale %q", *scale)
	}
	s.Seed = *seed
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
				fmt.Printf("trace: %d events -> %s\n", j.Total(), *traceOut)
			}
		}()
	}

	begin := time.Now()
	tr, err := s.BuildTrace()
	if err != nil {
		return err
	}
	fmt.Printf("== SocialTube full evaluation (scale %s, seed %d) ==\n", *scale, *seed)
	fmt.Printf("trace: %d channels, %d videos, %d users\n\n", len(tr.Channels), len(tr.Videos), len(tr.Users))

	fmt.Println("---- Section III: trace analysis ----")
	for _, tb := range []*metrics.Table{
		figures.Fig02(tr), figures.Fig03(tr), figures.Fig04(tr), figures.Fig05(tr),
		figures.Fig06(tr), figures.Fig07(tr), figures.Fig08(tr), figures.Fig09(tr),
		figures.Fig10(tr, 3), figures.Fig11(tr), figures.Fig12(tr), figures.Fig13(tr),
	} {
		fmt.Println(tb)
	}

	fmt.Println("---- Section IV: analytical models ----")
	fmt.Println(figures.Fig15())
	fmt.Println(figures.PrefetchAccuracyTable())

	fmt.Println("---- Section V: trace-driven simulation ----")
	fmt.Println(figures.Table1(s, tr))
	t16, err := figures.Fig16a(s, tr)
	if err != nil {
		return err
	}
	fmt.Println(t16)
	t17, err := figures.Fig17a(s, tr)
	if err != nil {
		return err
	}
	fmt.Println(t17)
	t18, err := figures.Fig18a(s, tr)
	if err != nil {
		return err
	}
	fmt.Println(t18)
	tc, err := figures.FigChurn(s, tr)
	if err != nil {
		return err
	}
	fmt.Println(tc)
	tt, err := figures.RunTimeline(s, tr)
	if err != nil {
		return err
	}
	fmt.Println(tt)
	if *tlOut != "" {
		if err := figures.AppendPoints(*tlOut, tt.Points); err != nil {
			return err
		}
		fmt.Printf("appended %d timeline points to %s\n\n", len(tt.Points), *tlOut)
	}

	if !*skipLoad {
		// The smoke columns: the full arc is socialtube-sim -fig load.
		fmt.Println("---- Section V: open-loop load sweep (smoke columns) ----")
		lw := figures.SmokeLoadSweep()
		lw.Seed = *seed
		lw.Shards = *shards
		fl, err := figures.RunLoad(lw)
		if err != nil {
			return err
		}
		fmt.Println(fl)
		if *loadOut != "" {
			if err := figures.AppendPoints(*loadOut, fl.Points); err != nil {
				return err
			}
			fmt.Printf("appended %d load points to %s\n\n", len(fl.Points), *loadOut)
		}
	}

	if !*skipScale {
		// Always the smoke sizes: the full 10k..1M sweep is
		// socialtube-sim -fig scale -scale paper territory.
		fmt.Println("---- Section V: scalability sweep (smoke sizes) ----")
		sw := figures.SmokeScaleSweep()
		sw.Seed = *seed
		sw.Shards = *shards
		fsc, err := figures.RunScaleSweep(sw)
		if err != nil {
			return err
		}
		fmt.Println(fsc)
		if *benchOut != "" {
			if err := figures.AppendPoints(*benchOut, fsc.Points); err != nil {
				return err
			}
			fmt.Printf("appended %d scale points to %s\n\n", len(fsc.Points), *benchOut)
		}
	}

	if !*skipEmu {
		fmt.Println("---- Section V: TCP emulation (PlanetLab substitute) ----")
		es := figures.SmallEmuScale()
		es.Seed = *seed
		etr, err := es.EmuTrace()
		if err != nil {
			return err
		}
		e16, err := figures.Fig16b(es, etr)
		if err != nil {
			return err
		}
		fmt.Println(e16)
		e17, err := figures.Fig17b(es, etr)
		if err != nil {
			return err
		}
		fmt.Println(e17)
		e18, err := figures.Fig18b(es, etr)
		if err != nil {
			return err
		}
		fmt.Println(e18)
		eo, err := figures.FigOutage(es, etr)
		if err != nil {
			return err
		}
		fmt.Println(eo)
		for _, fig := range []func(figures.EmuScale, *trace.Trace) (*figures.FigPlaneResult, error){
			figures.FigShardedOutage, figures.FigTakeover,
		} {
			f, err := fig(es, etr)
			if err != nil {
				return err
			}
			fmt.Println(f)
			if *failOut != "" {
				if err := figures.AppendPoints(*failOut, f.Points); err != nil {
					return err
				}
				fmt.Printf("appended %d control-plane points to %s\n\n", len(f.Points), *failOut)
			}
		}
		ef, err := figures.FigFailover(es, etr)
		if err != nil {
			return err
		}
		fmt.Println(ef)
		if *failOut != "" {
			if err := figures.AppendPoints(*failOut, ef.Points); err != nil {
				return err
			}
			fmt.Printf("appended %d failover points to %s\n\n", len(ef.Points), *failOut)
		}
	}
	fmt.Printf("total wall time: %v\n", time.Since(begin).Round(time.Millisecond))
	return nil
}
