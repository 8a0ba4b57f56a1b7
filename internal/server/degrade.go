package server

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"justintime/internal/fault"
)

// Degraded read-only mode: when the data dir stops accepting writes (a full
// disk, in practice ENOSPC anywhere in the durability path), the server
// degrades instead of dying. Mutating endpoints answer 503 + Retry-After,
// reads and deletes keep working (DELETE frees space — it is how an operator
// digs the disk out), and a background probe re-attempts a tiny durable
// write until the space comes back, at which point the mode clears itself.

// notePersistError classifies a durability-layer failure and flips the
// server into degraded mode when the cause is an out-of-space disk.
// Session creation calls it on a failed create. Nil-safe and cheap on the
// nil/healthy path.
func (s *Server) notePersistError(err error) {
	if err == nil || s.cfg.DataDir == "" {
		return
	}
	if fault.IsNoSpace(err) {
		s.enterDegraded(err)
	}
}

// enterDegraded flips the server read-only (idempotently) and starts the
// recovery probe.
func (s *Server) enterDegraded(cause error) {
	if !s.degraded.CompareAndSwap(false, true) {
		return
	}
	s.logger.Error("data dir is out of space; entering read-only degraded mode",
		"err", cause, "probe_every", s.cfg.DegradedProbeInterval)
	go s.probeDegraded()
}

// probeDegraded re-attempts a small durable write every DegradedProbeInterval
// and clears degraded mode on the first success. It exits with the server.
func (s *Server) probeDegraded() {
	t := time.NewTicker(s.cfg.DegradedProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			if err := s.probeWrite(); err != nil {
				continue
			}
			s.degraded.Store(false)
			s.logger.Info("data dir is writable again; leaving degraded mode")
			return
		}
	}
}

// probeWrite performs the full durable-write cycle — create, write, fsync,
// remove — through the server's I/O plane, so an injected fault schedule
// sees the probes too (each one burns down a bounded ENOSPC rule the same
// way real traffic would).
func (s *Server) probeWrite() error {
	fsys := fault.Of(s.cfg.FS)
	path := filepath.Join(s.cfg.DataDir, "sessions", "degraded.probe.tmp")
	f, err := fsys.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	_, werr := f.Write([]byte("rw-probe\n"))
	serr := f.Sync()
	cerr := f.Close()
	rerr := fsys.Remove(path)
	for _, e := range []error{werr, serr, cerr, rerr} {
		if e != nil {
			return e
		}
	}
	return nil
}

// rejectDegraded answers a mutating request with 503 + Retry-After when the
// server is read-only, reporting whether it wrote the response.
func (s *Server) rejectDegraded(w http.ResponseWriter) bool {
	if !s.degraded.Load() {
		return false
	}
	s.degradedRejects.Inc()
	w.Header().Set("Retry-After", strconv.Itoa(s.degradedRetrySecs()))
	writeError(w, http.StatusServiceUnavailable,
		fmt.Errorf("server is in read-only degraded mode (data dir is not writable); retry after the disk recovers"))
	return true
}

// degradedRetrySecs is the Retry-After hint while degraded: one probe
// interval rounded up, floored at 1s — the soonest the mode can clear.
func (s *Server) degradedRetrySecs() int {
	secs := int((s.cfg.DegradedProbeInterval + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}
