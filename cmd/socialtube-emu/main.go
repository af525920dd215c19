// Command socialtube-emu runs the real-network TCP emulation (the PlanetLab
// experiments): Figs. 16(b), 17(b), 18(b) and the tracker-outage
// resilience comparison. Every peer is a real TCP node on loopback with
// injected WAN latency and loss.
//
// Usage:
//
//	socialtube-emu -fig 16b -peers 40
//	socialtube-emu -fig all
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/socialtube/socialtube/internal/figures"
	"github.com/socialtube/socialtube/internal/obs"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "socialtube-emu:", err)
		os.Exit(1)
	}
}

func run(args []string) (retErr error) {
	fs := flag.NewFlagSet("socialtube-emu", flag.ContinueOnError)
	var (
		fig      = fs.String("fig", "all", "figure to regenerate: 16b, 17b, 18b, outage, outage-shard, takeover, failover or all")
		benchOut = fs.String("bench-out", "", "append the failover, outage-shard and takeover points to this JSONL file (empty disables)")
		peers    = fs.Int("peers", 24, "number of TCP peers")
		sessions = fs.Int("sessions", 2, "sessions per peer")
		videos   = fs.Int("videos", 6, "videos per session")
		watch    = fs.Duration("watch", 25*time.Millisecond, "emulated playback per video")
		seed     = fs.Int64("seed", 1, "experiment seed")
		metrics  = fs.String("metrics", "", "serve live cluster metrics on this address while each run is in flight (e.g. 127.0.0.1:8080; append ?format=prom for Prometheus exposition)")
		pprof    = fs.Bool("pprof", false, "with -metrics, also mount net/http/pprof on the metrics listener")
		traceOut = fs.String("trace-out", "", "write every emulated run's events as JSON Lines to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Fail fast on nonsensical counts before any cluster is spun up.
	switch {
	case *peers <= 0:
		return fmt.Errorf("-peers must be > 0, got %d", *peers)
	case *sessions <= 0:
		return fmt.Errorf("-sessions must be > 0, got %d", *sessions)
	case *videos <= 0:
		return fmt.Errorf("-videos must be > 0, got %d", *videos)
	case *watch <= 0:
		return fmt.Errorf("-watch must be > 0, got %v", *watch)
	}
	s := figures.EmuScale{
		Peers:            *peers,
		Sessions:         *sessions,
		VideosPerSession: *videos,
		WatchTime:        *watch,
		Seed:             *seed,
		MetricsAddr:      *metrics,
		Pprof:            *pprof,
	}
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
	tr, err := s.EmuTrace()
	if err != nil {
		return err
	}
	fmt.Printf("emulation: %d TCP peers, %d sessions x %d videos over %d channels\n\n",
		s.Peers, s.Sessions, s.VideosPerSession, len(tr.Channels))

	show := func(id string) error {
		switch id {
		case "16b":
			t, err := figures.Fig16b(s, tr)
			if err != nil {
				return err
			}
			fmt.Println(t)
		case "17b":
			t, err := figures.Fig17b(s, tr)
			if err != nil {
				return err
			}
			fmt.Println(t)
		case "18b":
			t, err := figures.Fig18b(s, tr)
			if err != nil {
				return err
			}
			fmt.Println(t)
		case "outage":
			t, err := figures.FigOutage(s, tr)
			if err != nil {
				return err
			}
			fmt.Println(t)
		case "outage-shard", "takeover":
			fig := figures.FigShardedOutage
			if id == "takeover" {
				fig = figures.FigTakeover
			}
			f, err := fig(s, tr)
			if err != nil {
				return err
			}
			fmt.Println(f)
			if *benchOut != "" {
				if err := figures.AppendPoints(*benchOut, f.Points); err != nil {
					return err
				}
				fmt.Printf("appended %d %s points to %s\n\n", len(f.Points), id, *benchOut)
			}
		case "failover":
			f, err := figures.FigFailover(s, tr)
			if err != nil {
				return err
			}
			fmt.Println(f)
			if *benchOut != "" {
				if err := figures.AppendPoints(*benchOut, f.Points); err != nil {
					return err
				}
				fmt.Printf("appended %d failover points to %s\n\n", len(f.Points), *benchOut)
			}
		default:
			return fmt.Errorf("unknown figure %q (want 16b, 17b, 18b, outage, outage-shard, takeover, failover or all)", id)
		}
		return nil
	}
	if *fig == "all" {
		for _, id := range []string{"16b", "17b", "18b", "outage", "outage-shard", "takeover", "failover"} {
			if err := show(id); err != nil {
				return err
			}
		}
		return nil
	}
	return show(*fig)
}
