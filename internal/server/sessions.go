package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/maphash"
	"log/slog"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"justintime/internal/core"
	"justintime/internal/obs"
	"justintime/internal/sqldb/persist"
)

// newSessionID returns an unguessable session identifier (128 bits from
// crypto/rand). Session IDs are capability tokens — whoever holds one can
// read the applicant's whole candidates database — so they must not be
// enumerable the way sequential IDs are.
func newSessionID() (string, error) {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", fmt.Errorf("server: generating session id: %w", err)
	}
	return "s-" + hex.EncodeToString(b[:]), nil
}

// sessionEntry is one memory-resident session with its LRU bookkeeping and,
// when persistence is on, the open store backing it. Fields are guarded by
// the owning shard's mutex. A session's files are written once, at
// creation, so dropping an entry loses nothing: eviction removes it from
// the map under the lock and closes its store afterwards.
type sessionEntry struct {
	sess     *core.Session
	store    *persist.Store // nil when running memory-only
	lastUsed time.Time
}

// rehydration is one in-flight disk load, the unit of singleflight
// coalescing: the first goroutine to miss on a cold id becomes the winner
// and performs the load; every later miss for the same id blocks on done
// and shares the result instead of reading the snapshot again.
type rehydration struct {
	done    chan struct{}
	sess    *core.Session // valid iff ok, set before done closes
	ok      bool
	deleted bool // a DELETE raced the load: winner discards, waiters miss
}

// sessionShard is one lock domain of the manager: a private map of resident
// entries plus the in-flight rehydrations keyed into this shard. Lookups,
// inserts and evictions on different shards never contend.
type sessionShard struct {
	m        *sessionManager
	mu       sync.Mutex
	entries  map[string]*sessionEntry
	inflight map[string]*rehydration
	// deleting tombstones ids whose DELETE is between "forgotten in memory"
	// and "files gone from disk". A rehydration that starts inside that
	// window would find the files still present and resurrect the session;
	// the tombstone makes it miss instead (and makes a winner that already
	// loaded discard). The value counts concurrent DELETEs of the same id,
	// so the tombstone outlives the last one's file removal.
	deleting  map[string]int
	nextSweep time.Time // throttle: full-map TTL scans run at most once per sweepEvery
}

// sessionManager owns the server's session lifecycle: unguessable IDs, an
// idle TTL, and a global resident cap enforced by least-recently-used
// eviction. It is hash-sharded by session ID so lookups never contend
// across shards, and within a shard all persistence I/O (create snapshot,
// rehydration load, delete) runs *outside* the shard lock:
//
//   - Creation snapshots the new session before the entry is published —
//     the ID is fresh random, so nothing can contend on it.
//   - Eviction removes the entry under the lock and closes its store after
//     releasing it. Sessions are immutable once created, so there is
//     nothing to write back: the files on disk already hold the session.
//   - A cache miss registers a singleflight rehydration and loads from
//     disk off-lock; concurrent misses for the same ID coalesce onto the
//     winner's result instead of reading the snapshot N times.
//
// The TTL bounds memory residency when persistence is on (evicted sessions
// rehydrate from disk on demand) and session lifetime when it is off.
// Expired entries are swept by whichever shard access trips the per-shard
// throttle, and by a background eviction loop so an idle daemon's memory
// shrinks without traffic.
type sessionManager struct {
	shards  []*sessionShard
	seed    maphash.Seed
	max     int        // global resident cap, enforced via live
	live    *obs.Gauge // resident entries across all shards
	ttl     time.Duration
	persist *persister // nil = memory-only

	// Lifecycle counters, registered by newSessionManager.
	evictionsTTL, evictionsLRU *obs.Counter
	rehydrations, coalesced    *obs.Counter

	nowFn      atomic.Pointer[func() time.Time] // test hook, read by every shard
	sweepEvery time.Duration

	stop   chan struct{}
	loopWG sync.WaitGroup
	closed atomic.Bool

	// Test seams, set before any traffic: called off-lock at the start of a
	// rehydration load / a DELETE's file removal for the given id.
	hookRehydrate   func(id string)
	hookRemoveFiles func(id string)

	// logger, when non-nil, replaces slog.Default() for the manager's
	// diagnostics. Wired by the Server after construction; tests building
	// bare managers leave it nil.
	logger *slog.Logger

	// keepID, when non-nil, filters freshly minted session IDs: add retries
	// until the predicate accepts one. It is how a cluster shard mints only
	// IDs it owns under the shard map's hash, so a created session's ID
	// routes back to the shard holding it. Wired by the Server after
	// construction, before any request runs.
	keepID func(string) bool
}

// log returns the manager's structured logger.
func (m *sessionManager) log() *slog.Logger {
	if m.logger != nil {
		return m.logger
	}
	return slog.Default()
}

// newSessionManager builds a manager with its families registered in reg.
func newSessionManager(max int, ttl time.Duration, shards int, p *persister, reg *obs.Registry) *sessionManager {
	if max < 1 {
		max = 1 // a non-positive cap would make the eviction loop spin
	}
	if shards < 1 {
		shards = runtime.GOMAXPROCS(0)
	}
	m := &sessionManager{
		shards:  make([]*sessionShard, shards),
		seed:    maphash.MakeSeed(),
		max:     max,
		ttl:     ttl,
		persist: p,
		stop:    make(chan struct{}),

		live:         reg.Gauge("jitd_sessions_live", "Sessions currently resident in memory."),
		evictionsTTL: reg.Counter("jitd_evictions_ttl_total", "Sessions evicted by idle-TTL expiry."),
		evictionsLRU: reg.Counter("jitd_evictions_lru_total", "Sessions evicted by the LRU cap."),
		rehydrations: reg.Counter("jitd_rehydrations_total", "Sessions reloaded from disk on a cache miss."),
		coalesced:    reg.Counter("jitd_rehydrations_coalesced_total", "Cache misses that piggybacked on an in-flight disk load."),
	}
	// Uneven counts reveal hash skew; a stuck shard reveals a lock problem.
	reg.VecFunc("jitd_shard_sessions", "Sessions resident in each session-manager shard.", "gauge", "shard", func() map[string]int64 {
		out := make(map[string]int64, len(m.shards))
		for i, n := range m.shardSizes() {
			out[strconv.Itoa(i)] = int64(n)
		}
		return out
	})
	m.setNow(time.Now)
	// Sweep scans a whole shard map, so throttle them well below the TTL
	// but often enough that expiry is prompt at human time scales.
	m.sweepEvery = ttl / 8
	if m.sweepEvery > 30*time.Second {
		m.sweepEvery = 30 * time.Second
	}
	for i := range m.shards {
		m.shards[i] = &sessionShard{
			m:        m,
			entries:  make(map[string]*sessionEntry),
			inflight: make(map[string]*rehydration),
			deleting: make(map[string]int),
		}
	}
	m.loopWG.Add(1)
	go m.evictionLoop()
	return m
}

// setNow installs the manager's clock (a test seam; production keeps
// time.Now). It is an atomic so the background eviction loop can read it
// while a test installs a fake.
func (m *sessionManager) setNow(fn func() time.Time) { m.nowFn.Store(&fn) }

func (m *sessionManager) now() time.Time { return (*m.nowFn.Load())() }

// shardFor maps an id onto its shard. maphash is seeded per manager, so
// shard placement is not attacker-predictable even though session IDs
// travel in URLs.
func (m *sessionManager) shardFor(id string) *sessionShard {
	return m.shards[m.shardIndexFor(id)]
}

// shardIndexFor exposes the shard number itself, for trace attribution.
func (m *sessionManager) shardIndexFor(id string) uint64 {
	return maphash.String(m.seed, id) % uint64(len(m.shards))
}

// add registers sess under a fresh random ID and returns the ID. With
// persistence on, the session's database is snapshotted *before* the entry
// is published (no lock held — the ID is unguessable and unpublished, so
// nothing contends), so a crash immediately after the response can still
// serve it. If the insert pushes the store past the global cap, the least
// recently used session anywhere is evicted.
func (m *sessionManager) add(sess *core.Session, constraintSrcs []string) (string, error) {
	id, err := m.mintSessionID()
	if err != nil {
		return "", err
	}
	var store *persist.Store
	if m.persist != nil {
		store, err = m.persist.create(id, sess, constraintSrcs)
		if err != nil {
			return "", fmt.Errorf("server: persisting session: %w", err)
		}
	}
	m.makeRoom()
	sh := m.shardFor(id)
	now := m.now()
	sh.mu.Lock()
	sh.entries[id] = &sessionEntry{sess: sess, store: store, lastUsed: now}
	m.live.Add(1)
	expired := sh.maybeExpireLocked(now)
	sh.mu.Unlock()
	closeStores(expired)
	m.enforceCap()
	return id, nil
}

// mintSessionID generates session IDs until the keepID predicate accepts
// one (rejection sampling). With N cluster shards the acceptance rate is
// ~1/N per draw, so the bound is never hit in practice; reaching it means
// the predicate rejects everything (a shard map that doesn't contain this
// shard's name), which should fail loudly rather than loop forever.
func (m *sessionManager) mintSessionID() (string, error) {
	for attempt := 0; attempt < 4096; attempt++ {
		id, err := newSessionID()
		if err != nil {
			return "", err
		}
		if m.keepID == nil || m.keepID(id) {
			return id, nil
		}
	}
	return "", fmt.Errorf("server: could not mint an acceptable session id (is this shard in the cluster map?)")
}

// get returns the session for id and marks it used. A miss on the
// in-memory map falls through to disk when persistence is on: an evicted
// (or pre-restart) session is rehydrated from its snapshot instead of
// reporting 404, counting against the cap like any resident session.
func (m *sessionManager) get(id string) (*core.Session, bool) {
	return m.lookup(id, nil)
}

// getCtx is get with trace propagation: when ctx carries an active obs.Span,
// the lookup reports how it resolved — directly on the request's span for a
// trivial resident hit, or under a "session.get" child span for the paths
// that do real work (see lookup).
func (m *sessionManager) getCtx(ctx context.Context, id string) (*core.Session, bool) {
	return m.lookup(id, obs.FromContext(ctx))
}

// startGetSpan opens the "session.get" child under parent. Shard indexes are
// tiny, so Itoa hits strconv's small-int cache and the pre-publish attr
// costs neither an allocation nor a lock. Nil-safe (nil parent, nil span).
func startGetSpan(parent *obs.Span, shIdx uint64) *obs.Span {
	return parent.StartChildAttrs("session.get",
		obs.Attr{Key: "shard", Val: strconv.Itoa(int(shIdx))})
}

// coldGetSpan returns span, opening it now if the fast path hadn't: a
// lookup that leaves the fast path late (expiry, miss, delete race,
// coalesce, rehydrate) still gets its tree node.
func coldGetSpan(span, parent *obs.Span, shIdx uint64) *obs.Span {
	if span != nil {
		return span
	}
	return startGetSpan(parent, shIdx)
}

// endLookup finishes a "session.get" span with the lookup's resolution and
// the shard-lock wait. Nil-safe.
func endLookup(span *obs.Span, result string, lockWait time.Duration) {
	if span == nil {
		return
	}
	span.EndAttrs(obs.Attr{Key: "result", Val: result},
		obs.Attr{Key: "lock_wait_us", Val: strconv.FormatInt(lockWait.Microseconds(), 10)})
}

// lookup is the body of get/getCtx; parent (nil when untraced) is the
// request's active span. The fast path — an uncontended shard lock and a
// resident hit — annotates parent directly (session_result / session_shard
// attrs) instead of opening a child span: a trivial hit has no timing worth
// a tree node, and skipping the span keeps tracing's hot-path cost to two
// plain attr stores and zero clock reads. Every other resolution — lock
// contention, expiry, miss, delete race, singleflight coalesce, rehydrate —
// opens a "session.get" child covering the interesting work, so slow traces
// still show the session manager's role in the tree.
func (m *sessionManager) lookup(id string, parent *obs.Span) (*core.Session, bool) {
	shIdx := m.shardIndexFor(id)
	sh := m.shards[shIdx]
	now := m.now()
	var span *obs.Span
	var lockWait time.Duration
	if !sh.mu.TryLock() {
		// Contended: open the span before blocking so the wait is measured —
		// the span's own start is the baseline, so the wait costs one clock
		// read after the lock lands and nothing inside the critical section.
		span = startGetSpan(parent, shIdx)
		sh.mu.Lock()
		lockWait = span.SinceStart()
	}
	if e, ok := sh.entries[id]; ok {
		// With persistence on, the TTL bounds residency, not lifetime, so an
		// expired-but-still-resident session is served directly instead of
		// being evicted and immediately rehydrated byte-identical.
		// Memory-only keeps expired-means-gone semantics.
		if m.persist == nil && now.Sub(e.lastUsed) > m.ttl {
			sh.evictLocked(id, m.evictionsTTL)
			sh.mu.Unlock()
			endLookup(coldGetSpan(span, parent, shIdx), "expired", lockWait)
			return nil, false
		}
		e.lastUsed = now
		sess := e.sess
		expired := sh.maybeExpireLocked(now)
		sh.mu.Unlock()
		closeStores(expired)
		if span != nil {
			endLookup(span, "hit", lockWait)
		} else if parent != nil {
			// Fast path: two plain attr stores on the request's span, no
			// child span, no clock read.
			parent.SetAttr("session_result", "hit")
			parent.SetAttrInt("session_shard", int64(shIdx))
		}
		return sess, true
	}
	expired := sh.maybeExpireLocked(now)
	if m.persist == nil {
		sh.mu.Unlock()
		endLookup(coldGetSpan(span, parent, shIdx), "miss", lockWait)
		return nil, false
	}
	if sh.deleting[id] > 0 {
		// A DELETE is between forgetting the session and removing its
		// files; starting a load now could resurrect it. Delete wins.
		sh.mu.Unlock()
		closeStores(expired)
		endLookup(coldGetSpan(span, parent, shIdx), "deleted", lockWait)
		return nil, false
	}
	// Cold miss: singleflight the disk load. Whoever installs the
	// rehydration first wins and performs the I/O; everyone else blocks on
	// the winner's result instead of reading the snapshot once per caller.
	if r, ok := sh.inflight[id]; ok {
		sh.mu.Unlock()
		closeStores(expired)
		m.coalesced.Inc()
		span = coldGetSpan(span, parent, shIdx)
		wait := span.StartChild("singleflight.wait")
		<-r.done
		wait.End()
		endLookup(span, "coalesced", lockWait)
		return r.sess, r.ok
	}
	r := &rehydration{done: make(chan struct{})}
	sh.inflight[id] = r
	sh.mu.Unlock()
	closeStores(expired)
	return sh.rehydrate(id, r, coldGetSpan(span, parent, shIdx), lockWait)
}

// rehydrate performs the winner's side of a singleflight disk load: open
// the snapshot (no shard lock held), then publish the result — unless a
// DELETE raced the load, in which case delete wins: the files are removed
// and every waiter sees a miss. span (nil when untraced) receives a
// "session.rehydrate" child covering the disk load and is ended here.
func (sh *sessionShard) rehydrate(id string, r *rehydration, span *obs.Span, lockWait time.Duration) (*core.Session, bool) {
	m := sh.m
	if m.hookRehydrate != nil {
		m.hookRehydrate(id)
	}
	rs := span.StartChild("session.rehydrate")
	sess, store, err := m.persist.open(id)
	if err != nil && !errors.Is(err, errSessionNotOnDisk) {
		rs.SetAttr("error", err.Error())
	}
	rs.End()
	if err == nil {
		// Make room before publishing (as creation does). The inflight
		// record is still registered, so later misses keep coalescing and a
		// racing DELETE still finds something to flag; concurrent winners
		// can overshoot the cap only by the number of in-flight loads.
		m.makeRoom()
	}

	sh.mu.Lock()
	delete(sh.inflight, id)
	if r.deleted || sh.deleting[id] > 0 {
		sh.mu.Unlock()
		if err == nil {
			store.Close() // the racing DELETE removes the files
		}
		close(r.done)
		endLookup(span, "deleted", lockWait)
		return nil, false
	}
	if err != nil {
		sh.mu.Unlock()
		if !errors.Is(err, errSessionNotOnDisk) {
			m.log().Error("session rehydration failed", "session_id", id, "err", err)
		}
		close(r.done)
		endLookup(span, "miss", lockWait)
		return nil, false
	}
	sh.entries[id] = &sessionEntry{sess: sess, store: store, lastUsed: m.now()}
	m.live.Add(1)
	sh.mu.Unlock()
	m.rehydrations.Inc()
	r.sess, r.ok = sess, true
	close(r.done)
	m.enforceCap()
	endLookup(span, "rehydrate", lockWait)
	return sess, true
}

// remove deletes the session from memory AND disk (the DELETE endpoint's
// contract: after it, the capability is dead and no files remain). It
// reports whether anything existed to delete. Deletion wins every race: an
// in-flight rehydration is flagged so the winner drops its load and every
// coalesced waiter sees a miss.
func (m *sessionManager) remove(id string) bool {
	sh := m.shardFor(id)
	existed := false
	var store *persist.Store
	sh.mu.Lock()
	if e, ok := sh.entries[id]; ok {
		delete(sh.entries, id)
		m.live.Add(-1)
		store = e.store
		// Memory-only: an expired session is already gone; drop the corpse
		// but report a miss, like get would.
		existed = m.persist != nil || m.now().Sub(e.lastUsed) <= m.ttl
	}
	if r, ok := sh.inflight[id]; ok {
		r.deleted = true
		existed = true
	}
	if m.persist != nil {
		// Tombstone until the files are gone: a rehydration starting in
		// this window must miss, not reload the doomed files.
		sh.deleting[id]++
	}
	sh.mu.Unlock()
	if store != nil {
		store.Close()
	}
	if m.persist != nil {
		if m.hookRemoveFiles != nil {
			m.hookRemoveFiles(id)
		}
		if m.persist.remove(id) {
			existed = true
		}
		sh.mu.Lock()
		if sh.deleting[id]--; sh.deleting[id] == 0 {
			delete(sh.deleting, id)
		}
		sh.mu.Unlock()
	}
	return existed
}

// count returns the number of memory-resident (possibly expired) sessions.
func (m *sessionManager) count() int {
	n := 0
	for _, sh := range m.shards {
		sh.mu.Lock()
		n += len(sh.entries)
		sh.mu.Unlock()
	}
	return n
}

// shardSizes returns the resident-session count of every shard, in shard
// order (the jitd_shard_sessions gauge).
func (m *sessionManager) shardSizes() []int {
	sizes := make([]int, len(m.shards))
	for i, sh := range m.shards {
		sh.mu.Lock()
		sizes[i] = len(sh.entries)
		sh.mu.Unlock()
	}
	return sizes
}

// shutdown stops the eviction loop, drops every resident session and closes
// its store. jitd calls it after draining requests on SIGTERM. Every
// session's files were complete when it was created, so a restart with the
// same data dir serves them all without any write here. It returns the
// number of stores closed.
func (m *sessionManager) shutdown() int {
	m.stopBackgroundSweeps()
	n := 0
	for _, sh := range m.shards {
		var stores []*persist.Store
		sh.mu.Lock()
		for id, e := range sh.entries {
			delete(sh.entries, id)
			m.live.Add(-1)
			if e.store != nil {
				stores = append(stores, e.store)
			}
		}
		sh.mu.Unlock()
		closeStores(stores)
		n += len(stores)
	}
	return n
}

// stopBackgroundSweeps halts the background eviction loop and waits for
// its in-flight sweep, idempotently. shutdown uses it; interleaving tests
// call it directly so that every eviction is driven by the test.
func (m *sessionManager) stopBackgroundSweeps() {
	if m.closed.CompareAndSwap(false, true) {
		close(m.stop)
		m.loopWG.Wait()
	}
}

// evictionLoop is the shard-independent background sweeper: it wakes every
// sweepEvery and evicts expired sessions, so an idle daemon's memory shrinks
// with its live session count even when no request arrives to trip the
// per-shard sweep throttle.
func (m *sessionManager) evictionLoop() {
	defer m.loopWG.Done()
	every := m.sweepEvery
	if every < time.Second {
		every = time.Second // don't busy-spin on micro TTLs (tests)
	}
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-m.stop:
			return
		case <-t.C:
			m.sweepAll()
		}
	}
}

// sweepAll expires idle sessions across every shard, closing each shard's
// evicted stores after releasing its lock.
func (m *sessionManager) sweepAll() {
	now := m.now()
	for _, sh := range m.shards {
		sh.mu.Lock()
		expired := sh.expireLocked(now)
		sh.mu.Unlock()
		closeStores(expired)
	}
}

// maybeExpireLocked runs expireLocked at most once per sweepEvery — the
// per-access sweep is an opportunistic assist to the background loop, not a
// full scan on every request.
func (sh *sessionShard) maybeExpireLocked(now time.Time) []*persist.Store {
	if now.Before(sh.nextSweep) {
		return nil
	}
	return sh.expireLocked(now)
}

// expireLocked evicts every entry idle past the TTL and returns their stores,
// which the caller closes with closeStores after releasing the shard lock.
func (sh *sessionShard) expireLocked(now time.Time) []*persist.Store {
	sh.nextSweep = now.Add(sh.m.sweepEvery)
	var stores []*persist.Store
	for id, e := range sh.entries {
		if now.Sub(e.lastUsed) > sh.m.ttl {
			sh.evictLocked(id, sh.m.evictionsTTL)
			stores = append(stores, e.store)
		}
	}
	return stores
}

// evictLocked drops id's entry from the shard and counts the eviction under
// cause. The caller closes the entry's store after releasing the lock.
func (sh *sessionShard) evictLocked(id string, cause *obs.Counter) {
	delete(sh.entries, id)
	sh.m.live.Add(-1)
	cause.Inc()
}

// closeStores releases evicted sessions' stores (pool frames and file
// descriptors; nil entries are memory-only sessions). Callers hold no shard
// lock.
func closeStores(stores []*persist.Store) {
	for _, st := range stores {
		if st != nil {
			st.Close()
		}
	}
}

// enforceCap evicts globally-least-recently-used sessions until the
// resident count is back under the cap. Victim selection scans shard
// minima (shard locks taken one at a time, never nested).
//
// The cap is enforced eventually, not as a hard pre-insert gate: a new
// entry is published first and the overflow evicted right after (plus
// makeRoom before publishing), so concurrent inserts can overshoot the cap
// briefly — bounded by the number of in-flight creations (createSem) and
// rehydrations.
func (m *sessionManager) enforceCap() {
	for m.live.Value() > int64(m.max) {
		if !m.evictGlobalLRU() {
			return // nothing resident to evict
		}
	}
}

// makeRoom pre-evicts so an imminent insert lands at (or under) the cap,
// mirroring the old manager's evict-before-insert behavior.
func (m *sessionManager) makeRoom() {
	for m.live.Value() >= int64(m.max) {
		if !m.evictGlobalLRU() {
			return
		}
	}
}

func (m *sessionManager) evictGlobalLRU() bool {
	victimShard := -1
	var victimID string
	var victimTime time.Time
	for si, sh := range m.shards {
		sh.mu.Lock()
		for id, e := range sh.entries {
			if victimShard == -1 || e.lastUsed.Before(victimTime) {
				victimShard, victimID, victimTime = si, id, e.lastUsed
			}
		}
		sh.mu.Unlock()
	}
	if victimShard == -1 {
		return false
	}
	sh := m.shards[victimShard]
	sh.mu.Lock()
	e, ok := sh.entries[victimID]
	if ok {
		sh.evictLocked(victimID, m.evictionsLRU)
	}
	sh.mu.Unlock()
	if ok && e.store != nil {
		e.store.Close()
	}
	return true // raced away or evicted; the caller re-checks the cap
}
