package wtls

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/crypto/prng"
	"repro/internal/obs"
)

func testSession(id byte) *session {
	return &session{id: []byte{id}, master: []byte{id, id}, suiteID: 0x000A}
}

// sameShardKeys returns n distinct keys hashing to one shard.
func sameShardKeys(sc *SessionCache, n int) []string {
	want := sc.shard("seed-key")
	keys := []string{"seed-key"}
	for i := 0; len(keys) < n; i++ {
		k := fmt.Sprintf("key-%d", i)
		if sc.shard(k) == want {
			keys = append(keys, k)
		}
	}
	return keys
}

func TestSessionCachePutGetOverwrite(t *testing.T) {
	sc := NewSessionCache()
	if got := sc.get("missing"); got != nil {
		t.Fatal("get on empty cache returned a session")
	}
	sc.put("a", testSession(1))
	sc.put("b", testSession(2))
	if got := sc.get("a"); got == nil || got.id[0] != 1 {
		t.Fatalf("get(a) = %v", got)
	}
	sc.put("a", testSession(3))
	if got := sc.get("a"); got == nil || got.id[0] != 3 {
		t.Fatal("overwrite did not replace the session")
	}
	if sc.Size() != 2 {
		t.Fatalf("Size=%d, want 2", sc.Size())
	}
}

func TestSessionCacheLRUEviction(t *testing.T) {
	// Total cap 2*sessionShards → per-shard LRU depth 2.
	sc := newSessionCache(2 * sessionShards)
	keys := sameShardKeys(sc, 4)

	sc.put(keys[0], testSession(0))
	sc.put(keys[1], testSession(1))
	sc.put(keys[2], testSession(2)) // evicts keys[0], the least recently used
	if sc.get(keys[0]) != nil {
		t.Fatal("LRU entry survived past the shard cap")
	}
	if sc.get(keys[1]) == nil || sc.get(keys[2]) == nil {
		t.Fatal("recently used entries were evicted")
	}

	// get refreshes recency: keys[1] was just touched, so inserting
	// another key evicts keys[2].
	if sc.get(keys[1]) == nil {
		t.Fatal("keys[1] missing")
	}
	sc.put(keys[3], testSession(3))
	if sc.get(keys[2]) != nil {
		t.Fatal("LRU eviction ignored get recency")
	}
	if sc.get(keys[1]) == nil || sc.get(keys[3]) == nil {
		t.Fatal("wrong entry evicted")
	}
}

func TestSessionCacheEvictionMetric(t *testing.T) {
	obs.Default.SetEnabled(true)
	defer obs.Default.SetEnabled(false)
	before := mSessionEvictions.Value()

	sc := newSessionCache(sessionShards) // per-shard depth 1
	keys := sameShardKeys(sc, 3)
	sc.put(keys[0], testSession(0))
	sc.put(keys[1], testSession(1)) // LRU-evicts keys[0]

	if got := mSessionEvictions.Value() - before; got != 1 {
		t.Fatalf("eviction counter moved by %d, want 1", got)
	}
}

func TestSessionCacheConcurrent(t *testing.T) {
	sc := newSessionCache(256)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := fmt.Sprintf("conn-%d", (g*31+i)%97)
				if i%3 == 0 {
					sc.put(k, testSession(byte(i)))
				} else {
					sc.get(k)
				}
			}
		}(g)
	}
	wg.Wait()
	if sc.Size() > 256+sessionShards {
		t.Fatalf("cache overshot its cap: %d", sc.Size())
	}
}

// TestSessionCacheResumptionSemantics: the sharded cache still drives the
// abbreviated handshake end to end, including a Size that tracks both
// sides' entries.
func TestSessionCacheResumptionSemantics(t *testing.T) {
	clientCache := newSessionCache(1024)
	serverCache := newSessionCache(1024)
	run := func() *Conn {
		scfg := serverConfig(t)
		scfg.SessionCache = serverCache
		ccfg := clientConfig(t)
		ccfg.SessionCache = clientCache
		c, _, _ := handshakePair(t, ccfg, scfg)
		return c
	}
	if c := run(); c.State().Resumed {
		t.Fatal("first handshake resumed")
	}
	if clientCache.Size() != 1 || serverCache.Size() != 1 {
		t.Fatalf("cache sizes after full handshake: client=%d server=%d, want 1/1",
			clientCache.Size(), serverCache.Size())
	}
	if c := run(); !c.State().Resumed {
		t.Fatal("second handshake did not resume")
	}
}

// TestSessionCacheBoundedByDefault: no constructor leaves the cache
// unbounded. Three times the default cap of distinct puts leave at most
// the cap.
func TestSessionCacheBoundedByDefault(t *testing.T) {
	for _, tc := range []struct {
		name string
		sc   *SessionCache
	}{
		{"NewSessionCache()", NewSessionCache()},
		{"newSessionCache(0)", newSessionCache(0)},
		{"newSessionCache(-1)", newSessionCache(-1)},
	} {
		for i := 0; i < 3*DefaultSessionCacheEntries; i++ {
			tc.sc.put(fmt.Sprintf("server:%d", i), testSession(byte(i)))
		}
		if n := tc.sc.Size(); n > DefaultSessionCacheEntries {
			t.Errorf("%s holds %d sessions after %d puts, want <= %d",
				tc.name, n, 3*DefaultSessionCacheEntries, DefaultSessionCacheEntries)
		}
	}
}

// TestSessionCacheEvictedSessionFallsBack: over real handshakes against a
// default-capped server cache, a session resumes while its shard holds
// fewer newer sessions than its cap, and once evicted the client's offer
// falls back to a full handshake whose fresh session resumes again.
func TestSessionCacheEvictedSessionFallsBack(t *testing.T) {
	clientCache, serverCache := NewSessionCache(), NewSessionCache()
	runs := 0
	run := func() *Conn {
		runs++
		scfg := serverConfig(t)
		scfg.Rand = prng.NewDRBG([]byte(fmt.Sprintf("server-rand-%d", runs)))
		scfg.SessionCache = serverCache
		ccfg := clientConfig(t)
		ccfg.SessionCache = clientCache
		c, _, _ := handshakePair(t, ccfg, scfg)
		return c
	}
	// fill stores n newer sessions in the shard that holds key.
	fill := func(key, tag string, n int) {
		want := serverCache.shard(key)
		for i, added := 0, 0; added < n; i++ {
			k := fmt.Sprintf("server:%s-%d", tag, i)
			if serverCache.shard(k) == want {
				serverCache.put(k, testSession(byte(i)))
				added++
			}
		}
	}

	c := run()
	if c.State().Resumed {
		t.Fatal("first handshake resumed")
	}
	key := "server:" + string(c.sessionID)
	fill(key, "a", serverCache.shardCap-1)
	if c := run(); !c.State().Resumed {
		t.Fatal("a session stored within the shard's cap did not resume")
	}

	fill(key, "b", serverCache.shardCap)
	c = run()
	if c.State().Resumed {
		t.Fatal("an evicted session resumed")
	}
	if "server:"+string(c.sessionID) == key {
		t.Fatal("the fallback full handshake reused the evicted session ID")
	}
	if c := run(); !c.State().Resumed {
		t.Fatal("the session stored by the fallback did not resume")
	}
}
