package wtls

import (
	"container/list"
	"sync"

	"repro/internal/obs"
)

// mSessionEvictions counts sessions dropped by LRU pressure (not
// overwrites of an existing key).
var mSessionEvictions = obs.C("wtls.session_evictions")

// sessionShards stripes the cache locks. A gateway resuming millions of
// sessions hits the cache on every handshake from every worker; 16
// independently-locked shards keep that traffic from serializing on one
// mutex while staying small enough to iterate for Size.
const sessionShards = 16

// DefaultSessionCacheEntries is the cap of every SessionCache not given a
// positive one. A gateway stores one session per full handshake, and
// most are never resumed, so an uncapped cache grows with every
// handshake it serves; 4096 sessions keep a handshake flood to a few MB.
const DefaultSessionCacheEntries = 4096

// SessionCache stores resumable sessions, keyed by server name on
// clients and by session ID on servers. It is sharded by key hash with
// per-shard locks, and bounds its size (LRU eviction).
type SessionCache struct {
	shardCap int // LRU bound per shard
	shards   [sessionShards]sessionShard
}

type sessionShard struct {
	mu  sync.Mutex
	m   map[string]*list.Element
	lru list.List // front = most recently used
}

type sessionEntry struct {
	key string
	s   *session
}

// NewSessionCache creates a session cache holding at most
// DefaultSessionCacheEntries sessions.
func NewSessionCache() *SessionCache {
	return newSessionCache(DefaultSessionCacheEntries)
}

// newSessionCache creates a session cache holding at most maxEntries
// sessions (DefaultSessionCacheEntries when maxEntries <= 0). Exceeding
// the cap evicts the least recently used entry of the key's shard; each
// shard holds maxEntries/sessionShards, rounded up.
func newSessionCache(maxEntries int) *SessionCache {
	if maxEntries <= 0 {
		maxEntries = DefaultSessionCacheEntries
	}
	sc := &SessionCache{shardCap: (maxEntries + sessionShards - 1) / sessionShards}
	for i := range sc.shards {
		sc.shards[i].m = make(map[string]*list.Element)
	}
	return sc
}

// shard picks the stripe for a key (FNV-1a).
func (sc *SessionCache) shard(key string) *sessionShard {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return &sc.shards[h%sessionShards]
}

func (sc *SessionCache) put(key string, s *session) {
	sh := sc.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if el, ok := sh.m[key]; ok {
		ent := el.Value.(*sessionEntry)
		ent.s = s
		sh.lru.MoveToFront(el)
		return
	}
	sh.m[key] = sh.lru.PushFront(&sessionEntry{key: key, s: s})
	if sh.lru.Len() > sc.shardCap {
		oldest := sh.lru.Back()
		ent := oldest.Value.(*sessionEntry)
		sh.lru.Remove(oldest)
		delete(sh.m, ent.key)
		mSessionEvictions.Inc()
	}
}

func (sc *SessionCache) get(key string) *session {
	sh := sc.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	el, ok := sh.m[key]
	if !ok {
		return nil
	}
	sh.lru.MoveToFront(el)
	return el.Value.(*sessionEntry).s
}

// Size reports the number of cached sessions.
func (sc *SessionCache) Size() int {
	n := 0
	for i := range sc.shards {
		sh := &sc.shards[i]
		sh.mu.Lock()
		n += len(sh.m)
		sh.mu.Unlock()
	}
	return n
}
