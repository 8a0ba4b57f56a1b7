package server

import (
	"fmt"
	"os"
	"sync"
	"testing"
	"time"

	"justintime/internal/constraints"
	"justintime/internal/dataset"
	"justintime/internal/obs"
)

// stormManager builds a persisting 4-shard manager with one real session
// already evicted to disk (cold), plus the fake clock handle that
// got it there.
func stormManager(t *testing.T) (m *sessionManager, id string, advance func(time.Duration)) {
	t.Helper()
	sys := demoSystem(t)
	p := newPersister(t.TempDir(), sys, nil, nil, new(obs.Counter))
	m = newSessionManager(8, time.Minute, 4, p, obs.NewRegistry())
	t.Cleanup(func() { m.shutdown() })
	// These tests script exact eviction/rehydration interleavings; the
	// background sweeper must not evict behind their backs or read the hooks.
	m.stopBackgroundSweeps()
	advance = installFakeClock(m, time.Unix(1000, 0))

	sess, err := sys.NewSession(dataset.RejectedProfiles()[0], constraints.NewSet())
	if err != nil {
		t.Fatal(err)
	}
	id, err = m.add(sess, nil)
	if err != nil {
		t.Fatal(err)
	}
	advance(2 * time.Minute)
	m.sweepAll()
	if m.count() != 0 {
		t.Fatalf("session not evicted to disk, %d resident", m.count())
	}
	return m, id, advance
}

// waitFor polls until cond holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRehydrationStormSingleLoad is the singleflight lock-in: many
// goroutines miss on the same cold session at once, the disk load runs
// exactly once (rehydration counter), and every other caller coalesces onto
// it (coalesced counter) yet still gets the session.
func TestRehydrationStormSingleLoad(t *testing.T) {
	m, id, _ := stormManager(t)

	const storm = 16
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	m.hookRehydrate = func(string) {
		once.Do(func() { close(entered) })
		<-release
	}

	var wg sync.WaitGroup
	errs := make(chan error, storm)
	for g := 0; g < storm; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if sess, ok := m.get(id); !ok || sess == nil {
				errs <- fmt.Errorf("storm getter missed the session")
			}
		}()
	}

	<-entered // the winner is inside the (blocked) disk load
	// Every other goroutine must coalesce onto it, not start loads of their
	// own.
	waitFor(t, "storm to coalesce", func() bool {
		return m.coalesced.Value() == storm-1
	})
	close(release)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	if got := m.rehydrations.Value(); got != 1 {
		t.Fatalf("disk loads = %d, want exactly 1", got)
	}
	if m.count() != 1 {
		t.Fatalf("resident sessions = %d, want 1", m.count())
	}
}

// TestDeleteRacesRehydration is the PR's bugfix lock-in: DELETE arriving
// while the same session is mid-rehydration must win — the files are
// removed, the loaded state is discarded, and every singleflight waiter
// sees a miss (404), not a resurrected session.
func TestDeleteRacesRehydration(t *testing.T) {
	m, id, _ := stormManager(t)
	dir, _ := m.persist.dir(id)

	const storm = 8
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	m.hookRehydrate = func(string) {
		once.Do(func() { close(entered) })
		<-release
	}

	var wg sync.WaitGroup
	hits := make(chan bool, storm)
	for g := 0; g < storm; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, ok := m.get(id)
			hits <- ok
		}()
	}

	<-entered
	waitFor(t, "waiters to coalesce", func() bool {
		return m.coalesced.Value() == storm-1
	})
	// The race: DELETE lands while the load is in flight.
	if !m.remove(id) {
		t.Fatal("remove of an on-disk session reported false")
	}
	close(release)
	wg.Wait()
	close(hits)
	for ok := range hits {
		if ok {
			t.Fatal("a waiter resurrected a deleted session")
		}
	}

	if got := m.rehydrations.Value(); got != 0 {
		t.Fatalf("completed rehydrations = %d, want 0 (delete won)", got)
	}
	if m.count() != 0 {
		t.Fatalf("resident sessions = %d, want 0", m.count())
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatalf("session directory survived the delete: %v", err)
	}
	if _, ok := m.get(id); ok {
		t.Fatal("deleted session still resolves")
	}
}

// TestRehydrationDuringDeleteWindow covers the narrower resurrection race:
// a rehydration that *starts* after DELETE has forgotten the session but
// before its files are actually removed from disk. The files are still
// readable at that instant; without the delete tombstone the load would
// succeed and resurrect the session.
func TestRehydrationDuringDeleteWindow(t *testing.T) {
	m, id, _ := stormManager(t)
	dir, _ := m.persist.dir(id)

	entered := make(chan struct{})
	release := make(chan struct{})
	m.hookRemoveFiles = func(string) {
		close(entered)
		<-release
	}

	removed := make(chan bool, 1)
	go func() { removed <- m.remove(id) }()
	<-entered // DELETE is mid-window: session forgotten, files still on disk

	if _, ok := m.get(id); ok {
		t.Fatal("get inside the delete window resurrected the session")
	}
	if got := m.rehydrations.Value(); got != 0 {
		t.Fatalf("rehydrations = %d, want 0 (tombstoned)", got)
	}

	close(release)
	if !<-removed {
		t.Fatal("remove reported false for an on-disk session")
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatalf("session directory survived: %v", err)
	}
	if _, ok := m.get(id); ok {
		t.Fatal("deleted session still resolves after the window closed")
	}
	if m.count() != 0 {
		t.Fatalf("resident sessions = %d, want 0", m.count())
	}
}
