package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"justintime/internal/obs"
)

func TestSessionIDsAreUnguessable(t *testing.T) {
	m := newSessionManager(10, time.Minute, 4, nil, obs.NewRegistry())
	t.Cleanup(func() { m.shutdown() })
	seen := map[string]bool{}
	for i := 0; i < 5; i++ {
		id, err := m.add(nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(id, "s-") || len(id) != 2+32 {
			t.Fatalf("id %q is not 128 bits of hex", id)
		}
		if seen[id] {
			t.Fatalf("duplicate id %q", id)
		}
		seen[id] = true
		if id == fmt.Sprintf("s%d", i+1) {
			t.Fatalf("id %q looks sequential", id)
		}
	}
}

// installFakeClock gives m a mutex-guarded fake clock (the background
// eviction loop reads the clock concurrently with the test advancing it)
// and returns the advance function.
func installFakeClock(m *sessionManager, start time.Time) func(time.Duration) {
	var mu sync.Mutex
	now := start
	m.setNow(func() time.Time { mu.Lock(); defer mu.Unlock(); return now })
	return func(d time.Duration) { mu.Lock(); now = now.Add(d); mu.Unlock() }
}

func TestSessionManagerTTL(t *testing.T) {
	m := newSessionManager(10, time.Minute, 4, nil, obs.NewRegistry())
	t.Cleanup(func() { m.shutdown() })
	advance := installFakeClock(m, time.Unix(1000, 0))
	id, err := m.add(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := m.get(id); !ok {
		t.Fatal("fresh session should resolve")
	}
	advance(30 * time.Second)
	if _, ok := m.get(id); !ok {
		t.Fatal("session used within TTL should resolve")
	}
	// The get above refreshed lastUsed; idle past the TTL expires it.
	advance(time.Minute + time.Second)
	if _, ok := m.get(id); ok {
		t.Fatal("idle session should expire")
	}
	if m.count() != 0 {
		t.Fatalf("expired session should be dropped, count = %d", m.count())
	}
}

func TestSessionManagerLRUCap(t *testing.T) {
	// 4 shards on 3 sessions: the LRU victim must still be the globally
	// least recently used entry, wherever its id hashed.
	m := newSessionManager(2, time.Hour, 4, nil, obs.NewRegistry())
	t.Cleanup(func() { m.shutdown() })
	advance := installFakeClock(m, time.Unix(1000, 0))
	a, _ := m.add(nil, nil)
	advance(time.Second)
	b, _ := m.add(nil, nil)
	advance(time.Second)
	// Touch a so b becomes the least recently used.
	if _, ok := m.get(a); !ok {
		t.Fatal("a should resolve")
	}
	advance(time.Second)
	c, _ := m.add(nil, nil)
	if m.count() != 2 {
		t.Fatalf("count = %d, want 2 (cap)", m.count())
	}
	if _, ok := m.get(b); ok {
		t.Fatal("b (LRU) should have been evicted")
	}
	for _, id := range []string{a, c} {
		if _, ok := m.get(id); !ok {
			t.Fatalf("%s should survive", id)
		}
	}
}

func TestSessionManagerRemove(t *testing.T) {
	m := newSessionManager(10, time.Hour, 4, nil, obs.NewRegistry())
	t.Cleanup(func() { m.shutdown() })
	id, _ := m.add(nil, nil)
	if !m.remove(id) {
		t.Fatal("remove of a live session should report true")
	}
	if m.remove(id) {
		t.Fatal("double remove should report false")
	}
}

// TestShardDistribution sanity-checks the sharding: sessions land across
// shards (maphash spreads 128-bit random ids), the per-shard gauge sums to
// the resident count, and every id still resolves through its shard.
func TestShardDistribution(t *testing.T) {
	m := newSessionManager(64, time.Hour, 8, nil, obs.NewRegistry())
	t.Cleanup(func() { m.shutdown() })
	ids := make([]string, 0, 32)
	for i := 0; i < 32; i++ {
		id, err := m.add(nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	sizes := m.shardSizes()
	if len(sizes) != 8 {
		t.Fatalf("shardSizes len = %d, want 8", len(sizes))
	}
	total, nonEmpty := 0, 0
	for _, n := range sizes {
		total += n
		if n > 0 {
			nonEmpty++
		}
	}
	if total != 32 || total != m.count() {
		t.Fatalf("shard sizes sum to %d, count() = %d, want 32", total, m.count())
	}
	// 32 random ids over 8 shards all landing in one shard is ~1e-28; a few
	// populated shards prove the hash is actually spreading.
	if nonEmpty < 2 {
		t.Fatalf("all sessions hashed to %d shard(s)", nonEmpty)
	}
	for _, id := range ids {
		if _, ok := m.get(id); !ok {
			t.Fatalf("id %s lost in the shards", id)
		}
	}
}

// TestCreateBackpressure locks in the bounded admission queue: with every
// creation slot taken, POST /api/sessions answers 429 + Retry-After without
// touching the generators, and a freed slot admits again.
func TestCreateBackpressure(t *testing.T) {
	h := NewWithConfig(demoSystem(t), Config{MaxPendingCreates: 1})
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	t.Cleanup(func() { h.Close() })

	// Occupy the only slot, as a slow in-flight creation would.
	h.createSem <- struct{}{}
	resp, out := postJSON(t, srv.URL+"/api/sessions", map[string]interface{}{
		"profile": johnProfile(),
	})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("full queue: %d %v, want 429", resp.StatusCode, out)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("429 without Retry-After")
	}
	if got := h.createsRejected.Value(); got != 1 {
		t.Fatalf("rejected counter = %d, want 1", got)
	}
	// Slot freed: creation admits and completes.
	<-h.createSem
	createSession(t, srv, nil)
}

func TestDeleteSessionEndpoint(t *testing.T) {
	srv := testServer(t)
	id := createSession(t, srv, nil)
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/api/sessions/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: %d", resp.StatusCode)
	}
	resp2, _ := getJSON(t, srv.URL+"/api/sessions/"+id+"/plan")
	if resp2.StatusCode != http.StatusNotFound {
		t.Fatalf("deleted session should 404, got %d", resp2.StatusCode)
	}
}

func TestSQLRowLimit(t *testing.T) {
	h := NewWithConfig(demoSystem(t), Config{MaxSQLRows: 2})
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	t.Cleanup(func() { h.Close() })
	id := createSession(t, srv, nil)
	resp, out := postJSON(t, srv.URL+"/api/sessions/"+id+"/sql",
		map[string]string{"query": "SELECT * FROM candidates"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sql: %d %v", resp.StatusCode, out)
	}
	rows, _ := out["rows"].([]interface{})
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want the 2-row cap", len(rows))
	}
	if out["truncated"] != true {
		t.Fatalf("truncated = %v", out["truncated"])
	}
	// Under the cap the flag stays false.
	_, out = postJSON(t, srv.URL+"/api/sessions/"+id+"/sql",
		map[string]string{"query": "SELECT COUNT(*) FROM candidates"})
	if out["truncated"] != false {
		t.Fatalf("small result truncated = %v", out["truncated"])
	}
}

// TestConcurrentQueriesOnSharedSession hammers one session from many
// goroutines mixing canned questions, free SQL and plan lookups (run under
// -race): readers must proceed concurrently without corrupting state.
func TestConcurrentQueriesOnSharedSession(t *testing.T) {
	srv := testServer(t)
	id := createSession(t, srv, nil)

	kinds := []string{
		"no-modification", "minimal-features-set", "dominant-feature",
		"minimal-overall-modification", "maximal-confidence", "turning-point",
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				switch (g + i) % 3 {
				case 0:
					body, _ := json.Marshal(map[string]interface{}{
						"kind": kinds[(g+i)%len(kinds)], "feature": "income", "alpha": 0.7,
					})
					resp, err := http.Post(srv.URL+"/api/sessions/"+id+"/ask", "application/json", bytes.NewReader(body))
					if err != nil {
						errs <- err
						return
					}
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						errs <- fmt.Errorf("ask: status %d", resp.StatusCode)
					}
				case 1:
					body, _ := json.Marshal(map[string]string{"query": "SELECT time, COUNT(*) FROM candidates WHERE time >= 0 GROUP BY time"})
					resp, err := http.Post(srv.URL+"/api/sessions/"+id+"/sql", "application/json", bytes.NewReader(body))
					if err != nil {
						errs <- err
						return
					}
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						errs <- fmt.Errorf("sql: status %d", resp.StatusCode)
					}
				default:
					resp, err := http.Get(srv.URL + "/api/sessions/" + id + "/plan")
					if err != nil {
						errs <- err
						return
					}
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						errs <- fmt.Errorf("plan: status %d", resp.StatusCode)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
