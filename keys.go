package dfpr

import (
	"context"
	"errors"
	"fmt"

	"dfpr/internal/batch"
	"dfpr/internal/graph"
)

// This file is the string-key surface of the open vertex universe: engines
// built with Open own an append-only key space (internal/keymap) that
// interns every external key — a URL, a username, any natural identifier —
// into the dense uint32 vertex id the algorithm stack runs on. Clients
// never manage dense ids: they submit KeyEdges, read back scores by key,
// and the ID-compaction bookkeeping lives inside the engine. Ids are
// assigned densely in first-mention order and never reused; the vertex
// universe and the key space grow together, so "this key existed at that
// version" is exactly "its id is below that version's vertex count" — which
// is why a pinned View resolves precisely the keys of its own version with
// nothing more than the bounds check its dense reads already perform.

// Key is an external string key for a vertex: the natural identifier a
// client addresses entities by.
type Key = string

// KeyEdge is a directed edge between two vertices addressed by key.
type KeyEdge struct {
	From, To Key
}

// ErrNotKeyed is returned by the keyed write API on an engine built without
// a key space (New): dense-ID engines have no key→id mapping to intern
// into. Build the engine with Open to get one.
var ErrNotKeyed = errors.New("dfpr: engine has no key space (built with New; use Open)")

// Keyed reports whether the engine owns a key space (built with Open).
func (e *Engine) Keyed() bool { return e.keys != nil }

// Resolve returns the dense vertex id of key if it has been interned by any
// submission so far. The lookup is lock-free and allocation-free for all
// but the most recently interned keys; on a dense-ID engine it always
// misses. Note that a freshly interned key may not have reached a published
// version yet — use View.ScoreOfKey for version-consistent reads.
func (e *Engine) Resolve(key Key) (uint32, bool) {
	if e.keys == nil {
		return 0, false
	}
	return e.keys.Resolve(key)
}

// Keys returns how many keys the engine has interned so far (one past the
// highest keyed vertex id), 0 for dense-ID engines.
func (e *Engine) Keys() int {
	if e.keys == nil {
		return 0
	}
	return e.keys.Len()
}

// SubmitKeyed is Submit for edges addressed by external keys: insertion
// endpoints are interned (mentioning a never-seen key creates its vertex —
// the open universe at the key level), deletions resolve against the
// existing key space and silently drop edges whose endpoints were never
// interned (such an edge cannot exist). The converted batch then flows
// through the same coalescing ingest pipeline as Submit, so keyed and
// dense submissions coalesce into the same rounds.
func (e *Engine) SubmitKeyed(ctx context.Context, del, ins []KeyEdge) (*Ticket, error) {
	// The follower check precedes interning: ids are permanent, so a
	// rejected write must not grow the key space either.
	if err := e.errIfFollower(); err != nil {
		return nil, err
	}
	gdel, gins, err := e.internKeyed(del, ins)
	if err != nil {
		return nil, err
	}
	return e.submitInternal(ctx, gdel, gins)
}

// ApplyKeyed is Apply for edges addressed by external keys, with the same
// intern-on-insert / resolve-on-delete semantics as SubmitKeyed and the
// same synchronous one-version-per-call publication as Apply.
func (e *Engine) ApplyKeyed(ctx context.Context, del, ins []KeyEdge) (uint64, error) {
	if err := ctx.Err(); err != nil {
		return 0, fmt.Errorf("dfpr: apply aborted: %w", err)
	}
	if err := e.errIfFollower(); err != nil {
		return 0, err
	}
	gdel, gins, err := e.internKeyed(del, ins)
	if err != nil {
		return 0, err
	}
	// ApplyKeyed is a synchronous batch boundary: settle the interner so the
	// batch's keys read lock-free from here on (gated — see keymap.Settle).
	e.keys.Settle()
	return e.applyInternal(batch.Update{Del: gdel, Ins: gins})
}

// internKeyed converts keyed batches to dense form: interning insertions,
// resolving (and dropping unresolvable) deletions. Interning before the
// batch is applied is safe precisely because the key space is append-only:
// an id handed out here is permanent whether or not the batch's round
// survives, and reads stay version-consistent through the views' length
// pinning.
func (e *Engine) internKeyed(del, ins []KeyEdge) (gdel, gins []graph.Edge, err error) {
	if e.keys == nil {
		return nil, nil, ErrNotKeyed
	}
	// The WithMaxVertices bound is enforced BEFORE any key is interned:
	// ids are permanent, so interning first and rejecting after would let
	// every rejected batch consume ids — growing the interner without
	// bound (the exact memory attack the bound exists to stop) and, once
	// past the bound, bricking all future keyed inserts. Concurrent
	// submissions may overshoot by at most their in-flight batch sizes,
	// which the bound's purpose (stopping unbounded growth) tolerates.
	fresh := 0
	var seen map[Key]struct{}
	for _, ke := range ins {
		if ke.From == "" || ke.To == "" {
			return nil, nil, fmt.Errorf("dfpr: empty key in edge %q→%q", ke.From, ke.To)
		}
		for _, k := range [2]Key{ke.From, ke.To} {
			if _, ok := e.keys.Resolve(k); ok {
				continue
			}
			if seen == nil {
				seen = make(map[Key]struct{})
			}
			if _, dup := seen[k]; !dup {
				seen[k] = struct{}{}
				fresh++
			}
		}
	}
	if universe := e.keys.Len() + fresh; universe > e.opts.maxN {
		return nil, nil, fmt.Errorf("dfpr: batch would intern %d new keys, growing the universe to %d beyond the bound %d (WithMaxVertices): %w",
			fresh, universe, e.opts.maxN, ErrTooManyVertices)
	}
	for _, ke := range ins {
		gins = append(gins, graph.Edge{U: e.keys.Intern(ke.From), V: e.keys.Intern(ke.To)})
	}
	for _, ke := range del {
		u, okU := e.keys.Resolve(ke.From)
		v, okV := e.keys.Resolve(ke.To)
		if !okU || !okV {
			continue // an edge between never-interned keys cannot exist
		}
		gdel = append(gdel, graph.Edge{U: u, V: v})
	}
	return gdel, gins, nil
}

// ScoreOfKey returns the PageRank score of the vertex interned as key at
// this view's version. It misses for keys never interned AND for keys
// interned after this version was published — the view's vertex count is
// the key space's length at its version, so a pinned view answers exactly
// for the universe it was taken over. The hit path is one lock-free resolve
// plus the dense bounds check: zero allocations, no locks.
//
//dfpr:hotpath
func (v *View) ScoreOfKey(key Key) (float64, bool) {
	if v.keys == nil {
		return 0, false
	}
	id, ok := v.keys.Resolve(key)
	if !ok {
		return 0, false
	}
	return v.ScoreOf(id)
}

// KeyOf returns the external key of vertex u as of this view's version:
// vertices beyond the view's universe — or only ever named densely — have
// no key here. The lookup allocates nothing, so a keyed top-k or delta is
// the dense one plus one KeyOf per entry.
//
//dfpr:hotpath
func (v *View) KeyOf(u uint32) (Key, bool) {
	if v.keys == nil || int(u) >= len(v.ranks) {
		return "", false
	}
	return v.keys.KeyOf(u)
}
