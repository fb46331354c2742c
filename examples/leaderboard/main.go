// Leaderboard: a live top-k page over a match stream, keyed by player
// handle — the client renders names, never dense vertex ids.
//
// A writer goroutine feeds match results ("loser links to winner") into an
// open-universe engine through the keyed ingest pipeline: players enter the
// board the first time a match mentions their handle, growing the engine's
// universe live. The reader never touches a rank vector OR an id table:
// every Result on the subscription carries the immutable View of its
// version; View.AppendTopK answers scores from the per-version cached
// selection — O(k) per frame, allocation-free once warm — and View.KeyOf
// resolves each entry's key against exactly the universe of its version. Movements
// against the previous frame are shown as ▲/▼/＊ markers.
//
// The writer never calls Rank: the engine's refresher ranks behind the
// ingest loop, one refresh over however many rounds arrived meanwhile, and a
// full ingest queue surfaces as ErrQueueFull backpressure, which the writer
// answers by yielding and retrying.
//
// Run with:
//
//	go run ./examples/leaderboard
package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"dfpr"
	"dfpr/internal/topk"
)

const k = 8

func main() {
	ctx := context.Background()
	const (
		players = 600
		matches = 30_000
		rounds  = 12
	)
	handle := func(p int) string {
		return fmt.Sprintf("%s_%02d", []string{
			"ada", "bix", "cyn", "dex", "eli", "fae", "gus", "hol", "ivy", "jax",
			"kit", "lue", "mia", "nox", "oak", "pip", "qin", "rex", "sol", "tao",
		}[p%20], p/20)
	}
	eng, err := dfpr.Open(
		dfpr.WithThreads(4),
		dfpr.WithTolerance(1e-3/players),
		dfpr.WithFrontierTolerance(1e-3/players),
	)
	if err != nil {
		panic(err)
	}
	sub := eng.Subscribe()

	// Writer: stream match results in rounds. The player pool expands as
	// the tournament runs — later rounds mention handles earlier rounds
	// never saw, and the engine grows to hold them.
	go func() {
		defer eng.Close()
		rng := rand.New(rand.NewSource(11))
		per := matches / rounds
		for r := 0; r < rounds; r++ {
			active := 100 + (players-100)*(r+1)/rounds
			ins := make([]dfpr.KeyEdge, 0, per)
			for i := 0; i < per; i++ {
				a, b := rng.Intn(active), rng.Intn(active)
				if a == b {
					continue
				}
				winner, loser := a, b
				if winner > loser { // lower id = stronger seed, usually wins
					if rng.Intn(4) != 0 {
						winner, loser = loser, winner
					}
				}
				ins = append(ins, dfpr.KeyEdge{From: handle(loser), To: handle(winner)})
			}
			tk, err := eng.SubmitKeyed(ctx, nil, ins)
			for errors.Is(err, dfpr.ErrQueueFull) {
				time.Sleep(time.Millisecond) // backpressure: yield and retry
				tk, err = eng.SubmitKeyed(ctx, nil, ins)
			}
			if err != nil {
				panic(err)
			}
			seq, err := tk.Wait(ctx)
			if err != nil {
				panic(err)
			}
			if err := eng.WaitRanked(ctx, seq); err != nil {
				panic(err)
			}
		}
	}()

	fmt.Printf("leaderboard: %d players max, %d matches in %d rounds, top %d per frame\n",
		players, matches, rounds, k)
	prevPos := map[string]int{} // handle → 1-based position in the previous frame
	top := make([]dfpr.Ranked, 0, k)
	frame := 0
	for u := range sub.Updates() {
		top = u.View.AppendTopK(top[:0], k)
		frame++
		fmt.Printf("\nframe %d — version %d, %d players (%d iterations, %s)\n",
			frame, u.Seq, u.View.N(), u.Iterations, topk.FormatDur(u.Elapsed))
		next := make(map[string]int, k)
		for i, e := range top {
			pos := i + 1
			key, _ := u.View.KeyOf(e.V)
			next[key] = pos
			marker := " "
			switch was, ok := prevPos[key]; {
			case !ok && frame > 1:
				marker = "＊" // new entrant
			case ok && was > pos:
				marker = "▲"
			case ok && was < pos:
				marker = "▼"
			}
			fmt.Printf("  %s #%-2d %-8s %.3e\n", marker, pos, key, e.Score)
		}
		prevPos = next
	}
	fmt.Println("\nstream drained; engine closed.")
}
