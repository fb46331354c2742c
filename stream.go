package dfpr

// Subscription is a push stream of rank refreshes from an Engine: the
// Result of every Rank call that advances the rank version, its View the
// same immutable handle Engine.View returns for that version, shared by
// every subscriber instead of copied per channel.
//
// Delivery is conflating, sized for live serving: a subscriber that falls
// behind loses intermediate versions, never the latest — the channel always
// holds the most recent undelivered result, so a slow consumer wakes up to
// fresh ranks instead of a backlog of stale ones. The channel is closed by
// Subscription.Close and by Engine.Close.
type Subscription struct {
	e  *Engine
	id uint64
	ch chan Result
}

// Subscribe registers a new rank-update stream. Subscribing to a closed
// engine returns a subscription whose channel is already closed.
func (e *Engine) Subscribe() *Subscription {
	e.subMu.Lock()
	defer e.subMu.Unlock()
	e.nextSub++
	sub := &Subscription{e: e, id: e.nextSub, ch: make(chan Result, 1)}
	if e.closed.Load() {
		close(sub.ch)
		return sub
	}
	if e.subs == nil {
		e.subs = make(map[uint64]*Subscription)
	}
	e.subs[sub.id] = sub
	return sub
}

// Updates returns the receive channel of the stream.
func (s *Subscription) Updates() <-chan Result { return s.ch }

// Close unregisters the subscription and closes its channel. Idempotent.
func (s *Subscription) Close() {
	s.e.subMu.Lock()
	defer s.e.subMu.Unlock()
	if _, ok := s.e.subs[s.id]; ok {
		delete(s.e.subs, s.id)
		close(s.ch)
	}
}

// publishLocked turns a successful Rank outcome into the published view of
// its version: attaches the view to the result, retains it in the ViewAt
// ring, makes it the lock-free latest, and pushes a copy of the result to
// every subscriber. All of it is zero-copy — the rank vector is shared between
// the result, the ring, Snapshot readers and every subscriber. Caller holds
// e.mu, which also makes it the only publisher — the conflating send below
// relies on that.
func (e *Engine) publishLocked(res *Result) {
	// The ranker never mutates a vector it has handed out (RanksShared).
	v := &View{seq: res.Seq, ranks: e.ranker.RanksShared(), ver: e.ranker.Version(), keys: e.keys}
	res.View = v
	e.viewMu.Lock()
	e.views = append(e.views, v)
	if len(e.views) > e.opts.history {
		copy(e.views, e.views[1:])
		e.views[len(e.views)-1] = nil
		e.views = e.views[:len(e.views)-1]
	}
	e.viewMu.Unlock()
	e.latest.Store(v)
	// Watermark after the latest-view store: a WaitRanked(seq) that returns
	// is guaranteed to observe ranks at least that fresh through View().
	e.rankWM.advance(res.Seq)
	e.met.noteRanked(e.ranker)
	if e.durable() != nil {
		// Rank publication is the durability cadence point: clear the
		// recovering flag once ranks catch the replayed tip, and kick off a
		// background checkpoint when one is due (immutable data only — the
		// writer never holds engine locks).
		e.maybeCheckpointLocked(v)
	}

	e.subMu.Lock()
	defer e.subMu.Unlock()
	for _, sub := range e.subs {
		for {
			select {
			case sub.ch <- *res:
			default:
				// Channel full: evict the stale undelivered result and
				// retry. One spin suffices unless the receiver raced the
				// eviction, in which case the send lands on the next try.
				select {
				case <-sub.ch:
				default:
				}
				continue
			}
			break
		}
	}
}
