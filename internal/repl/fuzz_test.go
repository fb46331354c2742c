package repl

import (
	"bufio"
	"bytes"
	"context"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"dfpr/internal/wal"
)

// feedBytes captures what a real Feed writes for a bootstrap request over a
// log holding n records: header line, checkpoint snapshot, n record frames
// and whatever heartbeats fit in before the request is cancelled.
func feedBytes(t testing.TB, n int) []byte {
	dir := t.TempDir()
	l, _, err := wal.Open(dir, wal.Options{Mode: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	d := wal.State{Seq: 0, Graph: testCSR(t, 8), Ranks: make([]float64, 8)}
	if err := l.WriteCheckpoint(&d); err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= uint64(n); seq++ {
		if err := l.Append(testRecord(seq)); err != nil {
			t.Fatal(err)
		}
	}
	feed := NewFeed(l, FeedOptions{Keyed: true, Heartbeat: time.Millisecond})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rw := httptest.NewRecorder()
	served := make(chan struct{})
	go func() {
		defer close(served)
		feed.ServeHTTP(rw, httptest.NewRequest("GET", "/v1/feed?from=0&boot=1", nil).WithContext(ctx))
	}()
	for deadline := time.Now().Add(5 * time.Second); feed.Records() < int64(n); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("feed served %d of %d records", feed.Records(), n)
		}
	}
	time.Sleep(5 * time.Millisecond) // room for a heartbeat or two
	cancel()
	<-served
	return rw.Body.Bytes()
}

// FuzzFeedStream drives the client's three readers — header line, bootstrap
// snapshot, frames — over an arbitrary response body. Each either errors or
// yields a value that validates / re-encodes, never panics, and never
// allocates by a length the body does not back: a forged snapshot size or
// frame length (up to 1 GiB is legal) must cost its sender the bytes.
func FuzzFeedStream(f *testing.F) {
	body := feedBytes(f, 3)
	flipped := bytes.Clone(body)
	flipped[bytes.IndexByte(body, '\n')+20] ^= 0x20 // inside the snapshot
	f.Add(body)
	f.Add(body[:len(body)*3/4])
	f.Add(flipped)
	f.Add([]byte("{\"proto\":1,\"snapshot\":1073741824}\nshort"))
	f.Add([]byte("{\"proto\":1}\nr12345678\x00\x00\x00\x40crc!")) // a 1 GiB frame, then nothing
	f.Fuzz(func(t *testing.T, body []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		defer func() {
			runtime.ReadMemStats(&after)
			if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(8*len(body)+1<<20); got > limit {
				t.Fatalf("reading a %d-byte body allocated %d bytes (limit %d)", len(body), got, limit)
			}
		}()
		br := bufio.NewReader(bytes.NewReader(body))
		hdr, err := readHeader(br)
		if err != nil {
			return
		}
		if hdr.Snapshot > 0 {
			st, err := readSnapshot(br, hdr.Snapshot)
			if err != nil {
				return
			}
			if err := st.Graph.Validate(); err != nil {
				t.Fatalf("bootstrap snapshot's graph does not validate: %v", err)
			}
		}
		for {
			rec, tip, _, err := readFrame(br)
			if err != nil {
				return
			}
			if rec == nil {
				continue
			}
			if tip != rec.Seq {
				t.Fatalf("record frame %d reports tip %d", rec.Seq, tip)
			}
			if back, _, err := wal.DecodeRecord(wal.EncodeRecord(nil, rec)); err != nil || back.Seq != rec.Seq {
				t.Fatalf("streamed record %d does not survive re-encoding: %v", rec.Seq, err)
			}
		}
	})
}
