// Command jitd serves the JustInTime demonstration as a JSON HTTP API (the
// backend behind the paper's three-screen demo UI).
//
// Usage:
//
//	jitd [-addr :8080] [-method ki] [-eras 12] [-rows 1200] [-horizon 3] [-k 8]
//	     [-max-sessions 1024] [-session-ttl 30m] [-max-sql-rows 10000]
//	     [-data-dir ""] [-shards 0] [-max-pending-creates 32]
//	     [-buffer-pool-pages 0] [-slow-request 25ms] [-trace-sample 16]
//	     [-log-format text] [-debug-addr ""]
//
// Endpoints:
//
//	GET    /api/schema                 feature schema
//	GET    /api/models                 the (M_t, delta_t) sequence
//	GET    /api/profiles               the five demo rejected applicants
//	GET    /api/questions              canned question catalog
//	POST   /api/sessions               {"profile": {...}, "constraints": [...]}
//	DELETE /api/sessions/{id}          drop a session (memory and disk)
//	GET    /api/sessions/{id}/inputs   temporal inputs x_0..x_T
//	GET    /api/sessions/{id}/plan     structured best plan per time point
//	POST   /api/sessions/{id}/ask      {"kind": "...", "feature": "...", "alpha": 0.7}
//	POST   /api/sessions/{id}/sql      {"query": "SELECT ..."} (SELECT only, row-capped)
//	GET    /debug/requests             sampled recent request traces (span trees)
//	GET    /debug/requests/slow        every request over -slow-request, with plans
//	GET    /metrics                    Prometheus text exposition (sessions,
//	                                   evictions, pool, latency histograms)
//
// Sessions are held in memory under an idle TTL and an LRU-evicting cap;
// session creation is cancelled when the client disconnects. The session
// manager is hash-sharded (-shards, default GOMAXPROCS) so lookups never
// contend across shards, and all persistence I/O — creation snapshots,
// rehydration loads, deletes — runs outside the shard locks: loading one
// session from disk never stalls requests to others.
// Concurrent cold hits on the same session collapse into a single disk load
// (singleflight). -max-pending-creates bounds concurrently admitted session
// creations; past it, POST /api/sessions answers 429 with Retry-After.
//
// With -data-dir set, the durability subsystem writes every session's
// candidates database once, when the session is created, under
// <data-dir>/sessions/<id>/ (meta.json and snapshot.db, plus a page file
// with -buffer-pool-pages). Sessions are only read after that, so eviction
// just drops the resident copy, cache misses rehydrate from disk instead of
// 404ing, and SIGINT/SIGTERM only closes the live sessions after draining
// in-flight requests — a restart with the same -data-dir resumes every
// session without re-running candidate generation.
//
// With -buffer-pool-pages N > 0 (requires -data-dir), every session's
// candidates table lives on paged row storage: rows are encoded into 8 KiB
// slotted pages that fault in from disk through one shared N-frame buffer
// pool and evict under memory pressure, so the resident heap cost of an idle
// session is its page directory rather than its rows. Pool behavior is
// observable on /metrics as jitd_pool_{hits,misses,evictions,
// dirty_writebacks}_total, jitd_pool_{pinned,resident_pages} and
// jitd_pool_fault_duration_seconds.
//
// Every request carries a trace: spans across the session manager, planner,
// executor, pager and durability layer, tail-sampled into two rings. Fast
// requests are kept 1-in-(-trace-sample); every request at or over
// -slow-request is kept unconditionally with its query plan rendered (the
// slow-query log on /debug/requests/slow). -log-format selects text or json
// structured logs; -debug-addr, when set, serves net/http/pprof on a
// separate listener.
//
// Cluster mode. With -cluster-config (the jitrouter shard map) and
// -shard-name, this process runs as one shard: it mints only session IDs it
// owns under the map's rendezvous hash, so sessions created here route back
// here through the router. With -replicate-to host:port (requires
// -data-dir), every session's files stream to a warm standby: the whole
// file set once a session is created, a delete once it is deleted.
// Replication health is on /metrics (jitd_replication_*; the lag gauge must
// read 0 under quiesced traffic before a failover).
//
// Standby mode. With -standby -replication-listen host:port (requires
// -data-dir), the process trains its models, then ingests its primary's
// replication stream into -data-dir instead of serving: every /api request
// answers 503 + Retry-After until POST /admin/promote stops ingest and
// opens the full API over the replicated session tree (sessions rehydrate
// lazily from local disk). While waiting, GET /admin/standby reports ingest
// counters and GET /metrics serves them as jitd_replica_*.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the -debug-addr mux
	"os"
	"os/signal"
	"path/filepath"
	"sync"
	"syscall"
	"time"

	"justintime"
	"justintime/internal/cluster"
	"justintime/internal/fault"
	"justintime/internal/obs"
	"justintime/internal/server"
	"justintime/internal/sqldb/persist"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	method := flag.String("method", "ki", "future-model generator: edd, ki, last, pooled")
	eras := flag.Int("eras", 12, "history eras (years)")
	rows := flag.Int("rows", 1200, "applications per era")
	horizon := flag.Int("horizon", 3, "future time points T")
	k := flag.Int("k", 8, "candidates per time point")
	seed := flag.Int64("seed", 1, "random seed")
	maxSessions := flag.Int("max-sessions", 1024, "in-memory session cap (LRU eviction past it)")
	sessionTTL := flag.Duration("session-ttl", 30*time.Minute, "idle session lifetime in memory")
	maxSQLRows := flag.Int("max-sql-rows", 10000, "row cap on the expert SQL endpoint")
	dataDir := flag.String("data-dir", "", "directory for session persistence (one snapshot per session); empty = memory-only")
	shards := flag.Int("shards", 0, "session-manager shard count (0 = GOMAXPROCS)")
	maxPendingCreates := flag.Int("max-pending-creates", 32, "admitted concurrent session creations; past it POST /api/sessions gets 429")
	bufferPoolPages := flag.Int("buffer-pool-pages", 0, "shared buffer pool frames for paged candidates storage (0 = plain in-heap rows; requires -data-dir)")
	slowRequest := flag.Duration("slow-request", 25*time.Millisecond, "requests at or over this duration are always kept in the slow-trace ring with rendered plans")
	traceSample := flag.Int("trace-sample", 16, "keep 1 in N fast requests in the recent-trace ring")
	logFormat := flag.String("log-format", "text", "structured log encoding: text or json")
	debugAddr := flag.String("debug-addr", "", "separate listener for net/http/pprof; empty = off")
	clusterConfig := flag.String("cluster-config", "", "shard map JSON (the jitrouter config); with -shard-name, mint only owned session IDs")
	shardName := flag.String("shard-name", "", "this process's name in -cluster-config")
	replicateTo := flag.String("replicate-to", "", "warm standby's replication listener host:port; streams created and deleted sessions there (requires -data-dir)")
	standbyMode := flag.Bool("standby", false, "run as a warm standby: ingest a primary's replication stream, gate the API until /admin/promote")
	replicationListen := flag.String("replication-listen", "", "standby's replication listener host:port (requires -standby)")
	faultDisk := flag.String("fault-disk", "", "chaos: deterministic disk-fault schedule, e.g. 'enospc:after=65536,times=8' or 'fail-fsync:nth=3' (see internal/fault)")
	faultNet := flag.String("fault-net", "", "chaos: replication-link fault config, e.g. 'latency=2ms,reset-after=32768,first-conns=6'")
	flag.Parse()

	logger, err := buildLogger(*logFormat)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	slog.SetDefault(logger)

	if *bufferPoolPages > 0 && *dataDir == "" {
		fatal(logger, "-buffer-pool-pages requires -data-dir (paged storage needs a backing file)")
	}
	if (*clusterConfig == "") != (*shardName == "") {
		fatal(logger, "-cluster-config and -shard-name go together")
	}
	if *replicateTo != "" && *dataDir == "" {
		fatal(logger, "-replicate-to requires -data-dir (replication ships the on-disk session tree)")
	}
	if *standbyMode && (*dataDir == "" || *replicationListen == "") {
		fatal(logger, "-standby requires -data-dir and -replication-listen")
	}
	if *replicationListen != "" && !*standbyMode {
		fatal(logger, "-replication-listen requires -standby")
	}
	diskInj, err := fault.ParseDiskSpec(*faultDisk)
	if err != nil {
		fatal(logger, "bad -fault-disk", "err", err)
	}
	netCfg, err := fault.ParseNetSpec(*faultNet)
	if err != nil {
		fatal(logger, "bad -fault-net", "err", err)
	}
	if diskInj != nil {
		logger.Warn("disk fault injection armed", "spec", *faultDisk)
	}
	if netCfg != nil {
		logger.Warn("network fault injection armed on the replication link", "spec", *faultNet)
	}
	var keepID func(string) bool
	if *clusterConfig != "" {
		m, err := cluster.LoadMap(*clusterConfig)
		if err != nil {
			fatal(logger, "bad -cluster-config", "err", err)
		}
		if m.ByName(*shardName) == nil {
			fatal(logger, "shard not in cluster map", "shard", *shardName)
		}
		names := m.Names()
		name := *shardName
		keepID = func(id string) bool { return cluster.OwnedBy(id, name, names) }
		logger.Info("cluster shard mode", "shard", name, "shards", len(names))
	}

	cfg := justintime.DefaultLoanDemoConfig()
	cfg.Method = *method
	cfg.Eras = *eras
	cfg.RowsPerEra = *rows
	cfg.T = *horizon
	cfg.K = *k
	cfg.Seed = *seed

	logger.Info("training models", "count", *horizon+1, "method", *method, "eras", *eras, "rows_per_era", *rows)
	demo, err := justintime.NewLoanDemo(cfg)
	if err != nil {
		fatal(logger, "building demo system failed", "err", err)
	}

	buildServer := func() *server.Server {
		scfg := server.Config{
			MaxSessions:       *maxSessions,
			SessionTTL:        *sessionTTL,
			MaxSQLRows:        *maxSQLRows,
			DataDir:           *dataDir,
			Shards:            *shards,
			MaxPendingCreates: *maxPendingCreates,
			BufferPoolPages:   *bufferPoolPages,
			SlowRequest:       *slowRequest,
			TraceSampleEvery:  *traceSample,
			Logger:            logger,
			KeepSessionID:     keepID,
			ReplicateTo:       *replicateTo,
		}
		if diskInj != nil {
			scfg.FS = diskInj
		}
		if netCfg != nil {
			scfg.ReplicationDial = fault.DialTimeout(netCfg)
		}
		return server.NewWithConfig(demo.System, scfg)
	}
	var handler http.Handler
	var closeNode func() int
	if *standbyMode {
		replica, err := persist.NewReplica(filepath.Join(*dataDir, "sessions"), logger)
		if err != nil {
			fatal(logger, "building replica failed", "err", err)
		}
		rln, err := net.Listen("tcp", *replicationListen)
		if err != nil {
			fatal(logger, "replication listener failed", "err", err)
		}
		if netCfg != nil {
			rln = fault.Listener(rln, netCfg)
		}
		go replica.Serve(rln)
		sb := newStandbyNode(replica, buildServer, logger)
		handler = sb
		closeNode = sb.Close
		logger.Info("warm standby: ingesting replication stream",
			"replication_listen", *replicationListen, "data_dir", *dataDir)
	} else {
		srv := buildServer()
		handler = srv
		closeNode = srv.Close
	}
	if *replicateTo != "" {
		logger.Info("replicating to warm standby", "target", *replicateTo)
	}
	if *dataDir != "" {
		logger.Info("session durability on", "data_dir", *dataDir)
	}
	if *bufferPoolPages > 0 {
		logger.Info("paged candidates storage on", "pool_pages", *bufferPoolPages, "pool_kib", *bufferPoolPages*8)
	}
	if *debugAddr != "" {
		// The pprof import registered its handlers on http.DefaultServeMux.
		// Serving the default mux on a separate listener keeps profiling
		// off the API port.
		go func() {
			dsrv := &http.Server{Addr: *debugAddr, Handler: http.DefaultServeMux, ReadHeaderTimeout: 10 * time.Second}
			logger.Info("debug listener on", "addr", *debugAddr)
			if err := dsrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("debug listener failed", "err", err)
			}
		}()
	}
	// ReadHeaderTimeout bounds how long an idle connection can sit in the
	// header-read phase (slow-loris hygiene); bodies are size-capped and
	// read before any admission slot is taken.
	srv := &http.Server{Addr: *addr, Handler: handler, ReadHeaderTimeout: 10 * time.Second}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	logger.Info("jitd listening", "addr", *addr)

	select {
	case err := <-errc:
		fatal(logger, "serve failed", "err", err)
	case <-ctx.Done():
		stop()
		logger.Info("signal received; draining in-flight requests")
		sctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		if err := srv.Shutdown(sctx); err != nil {
			logger.Error("shutdown failed", "err", err)
		}
		if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
			logger.Error("serve failed", "err", err)
		}
		if n := closeNode(); n > 0 {
			logger.Info("closed live sessions", "sessions", n)
		}
		logger.Info("jitd stopped")
	}
}

// standbyNode is the warm-standby lifecycle around a Server that does not
// exist yet: before promotion it ingests the primary's replication stream,
// serves its ingest counters on /metrics, and answers 503 to the API (so a
// router's health probe never routes here); POST /admin/promote stops ingest
// and builds the real Server over the replicated session tree, after which
// every request, /metrics included, flows through it.
type standbyNode struct {
	replica *persist.Replica
	build   func() *server.Server
	logger  *slog.Logger
	metrics *obs.Registry

	mu  sync.RWMutex
	srv *server.Server // nil until promoted
}

func newStandbyNode(replica *persist.Replica, build func() *server.Server, logger *slog.Logger) *standbyNode {
	r := obs.NewRegistry()
	r.GaugeFunc("jitd_replica_connected", "Standby-side replication feed is connected (1 = yes).", func() int64 {
		if replica.Stats().Connected {
			return 1
		}
		return 0
	})
	r.CounterFunc("jitd_replica_applied_bytes_total", "Replicated bytes applied by the standby.", func() int64 { return replica.Stats().AppliedBytes })
	r.CounterFunc("jitd_replica_syncs_total", "Full session file sets applied by the standby.", func() int64 { return replica.Stats().Syncs })
	r.CounterFunc("jitd_replica_deletes_total", "Session deletions applied by the standby.", func() int64 { return replica.Stats().Deletes })
	return &standbyNode{replica: replica, build: build, logger: logger, metrics: r}
}

func (n *standbyNode) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodPost && r.URL.Path == "/admin/promote" {
		n.promote(w)
		return
	}
	n.mu.RLock()
	srv := n.srv
	n.mu.RUnlock()
	if srv != nil {
		srv.ServeHTTP(w, r)
		return
	}
	switch {
	case r.Method == http.MethodGet && r.URL.Path == "/admin/standby":
		writeJSON(w, http.StatusOK, map[string]interface{}{"promoted": false, "replica": n.replica.Stats()})
	case r.Method == http.MethodGet && r.URL.Path == "/metrics":
		n.metrics.ServeHTTP(w, r)
	default:
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, map[string]interface{}{
			"error": "standby: not promoted; POST /admin/promote to take over",
		})
	}
}

// promote stops replication ingest and opens the API. Idempotent: a second
// promotion reports success without rebuilding anything.
func (n *standbyNode) promote(w http.ResponseWriter) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.srv != nil {
		writeJSON(w, http.StatusOK, map[string]interface{}{"promoted": true, "already": true})
		return
	}
	st := n.replica.Stats()
	if err := n.replica.Close(); err != nil {
		n.logger.Error("standby: closing replica failed", "err", err)
	}
	n.srv = n.build()
	n.logger.Info("standby promoted to primary",
		"syncs", st.Syncs, "deletes", st.Deletes, "applied_bytes", st.AppliedBytes)
	writeJSON(w, http.StatusOK, map[string]interface{}{"promoted": true})
}

// Close shuts down whichever phase the node is in.
func (n *standbyNode) Close() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.srv != nil {
		return n.srv.Close()
	}
	_ = n.replica.Close()
	return 0
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// buildLogger maps -log-format onto a slog handler writing to stderr.
func buildLogger(format string) (*slog.Logger, error) {
	switch format {
	case "text", "":
		return slog.New(slog.NewTextHandler(os.Stderr, nil)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, nil)), nil
	default:
		return nil, fmt.Errorf("jitd: unknown -log-format %q (want text or json)", format)
	}
}

// fatal logs at Error level and exits non-zero (slog has no Fatal).
func fatal(logger *slog.Logger, msg string, args ...any) {
	logger.Error(msg, args...)
	os.Exit(1)
}
