// Command sosd serves synthesis over HTTP: a fault-tolerant front end to
// the sos solver stack with admission control, per-request deadlines and
// budgets, graceful degradation under load, and graceful shutdown.
//
//	sosd -addr :8723 -workers 4 -queue 16 -capacity 30s
//
// Endpoints: POST /v1/solve, POST /v1/sweep, GET /v1/jobs/{id},
// GET /v1/stats, GET /healthz, GET /readyz. See DESIGN.md §12.
package main

import (
	"context"
	"expvar"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"sos"
	"sos/internal/server"
	"sos/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "sosd:", err)
		os.Exit(1)
	}
}

func run(args []string, out *os.File) error {
	fs := flag.NewFlagSet("sosd", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		addr       = fs.String("addr", ":8723", "listen address")
		workers    = fs.Int("workers", 0, "concurrent solver workers (0 = default 2)")
		queueDepth = fs.Int("queue", 0, "admission queue depth (0 = 4x workers)")
		capacity   = fs.Duration("capacity", 30*time.Second, "solve-time capacity per lone request; divided fairly under concurrency")
		defBudget  = fs.Duration("default-budget", 10*time.Second, "per-request budget when the request carries none")
		maxBudget  = fs.Duration("max-budget", 0, "clamp on client-requested budgets (0 = capacity)")
		drainGrace = fs.Duration("drain-grace", 5*time.Second, "how long shutdown lets in-flight solves run before canceling them")
		cacheSize  = fs.Int("cache-size", 4096, "result-cache capacity in proofs (0 disables the cache)")
		cachePath  = fs.String("cache-persist", "", "JSONL spill file for cached proofs; warm-loaded at startup (empty = in-memory only)")
		maxBatch   = fs.Int("max-batch", 0, "max specs per POST /v1/batch (0 = default 64)")
		raceFlag   = fs.Bool("race-engines", false, "race the engine portfolio concurrently per solve (first proof wins); per-request \"race\" overrides")
		quiet      = fs.Bool("quiet", false, "suppress per-request log lines")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	logger := log.New(out, "sosd ", log.LstdFlags|log.Lmsgprefix)
	logf := logger.Printf
	if *quiet {
		logf = func(string, ...any) {}
	}

	tel := telemetry.New(nil)
	var cache *sos.Cache
	if *cacheSize > 0 {
		var cerr error
		cache, cerr = sos.NewCache(sos.CacheOptions{
			Capacity:    *cacheSize,
			PersistPath: *cachePath,
			Telemetry:   tel,
		})
		if cerr != nil {
			return fmt.Errorf("cache: %w", cerr)
		}
		defer cache.Close()
		if *cachePath != "" {
			restored, skipped := cache.Loaded()
			logger.Printf("cache: %d proofs restored from %s (%d lines skipped)", restored, *cachePath, skipped)
		}
		publishCacheExpvars(tel, cache)
	}
	srv := server.New(server.Config{
		Workers:       *workers,
		QueueDepth:    *queueDepth,
		Capacity:      *capacity,
		DefaultBudget: *defBudget,
		MaxBudget:     *maxBudget,
		DrainGrace:    *drainGrace,
		MaxBatch:      *maxBatch,
		RaceEngines:   *raceFlag,
		Cache:         cache,
		Telemetry:     tel,
		Logf:          logf,
	})

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	_, depth := srv.Queue()
	logger.Printf("listening on %s (workers %d, queue %d)", ln.Addr(), srv.Workers(), depth)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}
	stop() // a second signal now kills the process the default way

	logger.Printf("signal received: draining (grace %v)", *drainGrace)
	// Drain order matters: stop admission and finish solves first (so
	// handlers still hold live connections get their responses), then close
	// the HTTP server.
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainGrace+10*time.Second)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		logger.Printf("drain: %v", err)
	}
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		logger.Printf("http shutdown: %v", err)
	}
	<-serveErr // Serve has returned ErrServerClosed by now
	logger.Printf("bye: served %d, shed %d, degraded %d, canceled %d, panics %d",
		tel.Get(telemetry.CtrReqServed), tel.Get(telemetry.CtrReqShed),
		tel.Get(telemetry.CtrReqDegraded), tel.Get(telemetry.CtrReqCanceled),
		tel.Get(telemetry.CtrReqPanics))
	if cache != nil {
		logger.Printf("cache: %d proofs, hits %d, near-hits %d, misses %d, evictions %d, coalesced %d",
			cache.Len(), tel.Get(telemetry.CtrCacheHits), tel.Get(telemetry.CtrCacheNearHits),
			tel.Get(telemetry.CtrCacheMisses), tel.Get(telemetry.CtrCacheEvictions),
			tel.Get(telemetry.CtrCacheCoalesced))
	}
	return nil
}

// expvarOnce guards against double expvar registration (expvar.Publish
// panics on duplicate names; run() is re-entered in tests).
var expvarOnce sync.Once

// publishCacheExpvars exports the cache counters and size on the standard
// expvar surface ("sos_cache" under /debug/vars of any default-mux
// listener, and expvar.Get for in-process consumers).
func publishCacheExpvars(tel *telemetry.Collector, cache *sos.Cache) {
	expvarOnce.Do(func() {
		expvar.Publish("sos_cache", expvar.Func(func() any {
			return map[string]int64{
				"len":       int64(cache.Len()),
				"hits":      tel.Get(telemetry.CtrCacheHits),
				"near_hits": tel.Get(telemetry.CtrCacheNearHits),
				"misses":    tel.Get(telemetry.CtrCacheMisses),
				"evictions": tel.Get(telemetry.CtrCacheEvictions),
				"coalesced": tel.Get(telemetry.CtrCacheCoalesced),

				"frontier_hits":         tel.Get(telemetry.CtrFrontierHits),
				"frontier_partial_hits": tel.Get(telemetry.CtrFrontierPartialHits),
				"frontier_misses":       tel.Get(telemetry.CtrFrontierMisses),
				"frontier_delta_points": tel.Get(telemetry.CtrFrontierDeltaPoints),
				"frontier_stores":       tel.Get(telemetry.CtrFrontierStores),
			}
		}))
	})
}
