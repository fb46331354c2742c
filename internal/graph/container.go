package graph

// Versioned binary CSR container ("DFPRCSR1"). This is the one on-disk
// layout, shared by durability checkpoints (internal/wal) and the
// zero-parse graph files that internal/gio memory-maps: a fixed 64-byte
// header, both offset arrays, then both adjacency blobs. All integers are
// little-endian and every array starts 8- or 4-aligned relative to the
// container's first byte, so on a little-endian host a page-aligned mapping
// can alias the arrays in place instead of copying. Integrity is the
// caller's concern (checkpoint files carry a checksum over the whole
// payload); decoding still validates the structural invariants so a
// corrupted but checksum-colliding payload cannot smuggle out-of-range
// offsets into the kernels.
//
// Layout:
//
//	off  0  magic   "DFPRCSR1" (8 bytes)
//	off  8  u32     version (currently 1)
//	off 12  u32     flags (must be zero; bit 0, the retired delta-compressed
//	                edge blobs, is refused with its own message)
//	off 16  u64     n (vertices)
//	off 24  u64     mOut (out-edges)
//	off 32  u64     mIn (in-edges)
//	off 40  u64     outBytes (length of the out-adjacency blob)
//	off 48  u64     inBytes (length of the in-adjacency blob)
//	off 56  u64     reserved (zero)
//	off 64  u64×(n+1)  outPtr
//	     …  u64×(n+1)  inPtr
//	     …  outBytes   out-adjacency blob
//	     …  inBytes    in-adjacency blob
//
// Adjacency is stored as raw little-endian uint32 arrays (outBytes = 4·mOut)
// and the ptr arrays hold global edge indices: the CSR's blocks laid end to
// end, rows in its order: out-rows ascending, each in-row led by its
// vertex's self-loop (if any) with the other sources ascending. Containers
// written before in-rows led with their self-loop hold every row
// ascending; they are still version 1, and DecodeContainer moves each loop
// to the front of a copy of the in blocks (see inRowsSelfFirst).

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"unsafe"
)

// containerMagic identifies a DFPRCSR1 container.
var containerMagic = [8]byte{'D', 'F', 'P', 'R', 'C', 'S', 'R', '1'}

const (
	containerVersion = 1
	containerHeader  = 64
)

// IsContainer reports whether b starts with the DFPRCSR1 magic.
func IsContainer(b []byte) bool {
	return len(b) >= 8 && bytes.Equal(b[:8], containerMagic[:])
}

// ContainerSize returns the exact byte length AppendContainer produces.
func (g *CSR) ContainerSize() int {
	return containerHeader + 16*(g.n+1) + 8*g.m
}

// AppendContainer serialises g as a DFPRCSR1 container onto dst and returns
// the extended slice, walking the blocks of each side: the offsets come out
// global, the adjacency blobs as the concatenated rows.
func (g *CSR) AppendContainer(dst []byte) []byte {
	le := binary.LittleEndian
	dst = slices.Grow(dst, g.ContainerSize())
	dst = append(dst, containerMagic[:]...)
	dst = le.AppendUint32(dst, containerVersion)
	dst = le.AppendUint32(dst, 0) // flags
	dst = le.AppendUint64(dst, uint64(g.n))
	dst = le.AppendUint64(dst, uint64(g.m))
	dst = le.AppendUint64(dst, uint64(g.m))
	dst = le.AppendUint64(dst, uint64(4*g.m))
	dst = le.AppendUint64(dst, uint64(4*g.m))
	dst = le.AppendUint64(dst, 0) // reserved
	for _, s := range []side{g.out, g.in} {
		at := uint64(0)
		for i, b := range s {
			lo, hi := blockSpan(i, g.n)
			for _, p := range b.ptr[:hi-lo] {
				dst = le.AppendUint64(dst, at+p-b.ptr[0])
			}
			at += uint64(b.edges())
		}
		dst = le.AppendUint64(dst, at)
	}
	for _, s := range []side{g.out, g.in} {
		for _, b := range s {
			dst = appendU32s(dst, b.adj[b.ptr[0]:b.ptr[blockRows]])
		}
	}
	return dst
}

// Bytes returns the resident size of the snapshot's arrays in bytes, counted
// as if it shared no block with another snapshot — the RAM the graph itself
// occupies, exported as the graph_bytes gauge.
func (g *CSR) Bytes() int {
	return 16*(blockRows+1)*numBlocks(g.n) + 8*g.m
}

// DecodeContainer parses a DFPRCSR1 container. With alias=true (and a
// little-endian host and suitably aligned buffer) the returned blocks alias
// b directly, each block's offsets a window of the mapped ones and its
// adjacency the whole mapped blob — the caller must keep b alive and
// unmodified for the graph's lifetime; this is the zero-copy path under
// gio.LoadCSRMapped. Without alias every block is copied into arrays of its
// own. Either way the structural invariants are validated before
// returning, so a corrupted container cannot smuggle out-of-range offsets
// into the kernels. A container whose in-rows are all ascending (the layout
// before in-rows led with their self-loop) decodes with relaid copies of
// the in blocks; the buffer itself is never written.
func DecodeContainer(b []byte, alias bool) (*CSR, error) {
	le := binary.LittleEndian
	if !IsContainer(b) {
		return nil, fmt.Errorf("graph: not a DFPRCSR1 container")
	}
	if len(b) < containerHeader {
		return nil, fmt.Errorf("graph: truncated container header (%d bytes)", len(b))
	}
	if v := le.Uint32(b[8:]); v != containerVersion {
		return nil, fmt.Errorf("graph: unsupported container version %d", v)
	}
	switch flags := le.Uint32(b[12:]); {
	case flags&1 != 0:
		return nil, fmt.Errorf("graph: delta-compressed containers are no longer supported; regenerate with `prgen -csr`")
	case flags != 0:
		return nil, fmt.Errorf("graph: unknown container flags %#x", flags)
	}
	n := int(le.Uint64(b[16:]))
	mOut := int(le.Uint64(b[24:]))
	mIn := int(le.Uint64(b[32:]))
	outBytes := int(le.Uint64(b[40:]))
	inBytes := int(le.Uint64(b[48:]))
	// No dimension may exceed what b could hold: past this check none of the
	// size arithmetic below can overflow.
	if sz := len(b); n < 0 || n >= sz/16 || mOut < 0 || mOut > sz/4 || mIn < 0 || mIn > sz/4 ||
		outBytes < 0 || outBytes > sz || inBytes < 0 || inBytes > sz {
		return nil, fmt.Errorf("graph: container dimensions out of range for %d bytes (n=%d mOut=%d mIn=%d)", sz, n, mOut, mIn)
	}
	if mOut != mIn {
		return nil, fmt.Errorf("graph: out edges (%d) != in edges (%d)", mOut, mIn)
	}
	want := containerHeader + 16*(n+1) + outBytes + inBytes
	if len(b) != want {
		return nil, fmt.Errorf("graph: container payload %d bytes, want %d (n=%d mOut=%d mIn=%d)", len(b), want, n, mOut, mIn)
	}
	if outBytes != 4*mOut || inBytes != 4*mIn {
		return nil, fmt.Errorf("graph: container blob sizes %d/%d do not match edge counts %d/%d", outBytes, inBytes, mOut, mIn)
	}
	ptrB := b[containerHeader:]
	blobB := ptrB[16*(n+1):]
	outPtr := u64view(ptrB[:8*(n+1)], alias)
	inPtr := u64view(ptrB[8*(n+1):16*(n+1)], alias)
	if outPtr[0] != 0 || outPtr[n] != uint64(mOut) || inPtr[0] != 0 || inPtr[n] != uint64(mIn) {
		return nil, fmt.Errorf("graph: decoded container invalid: offsets do not span adjacency")
	}
	g := &CSR{n: n, m: mOut, out: decodeSide(n, outPtr, blobB[:outBytes], alias),
		in: decodeSide(n, inPtr, blobB[outBytes:], alias)}
	if err := validateSide("out", n, g.m, g.out, false); err != nil {
		return nil, fmt.Errorf("graph: decoded container invalid: %w", err)
	}
	if err := validateSide("in", n, g.m, g.in, true); err != nil {
		if validateSide("in", n, g.m, g.in, false) != nil {
			return nil, fmt.Errorf("graph: decoded container invalid: %w", err)
		}
		if alias {
			g.in = decodeSide(n, inPtr, blobB[outBytes:], false)
		}
		inRowsSelfFirst(g.in, g.m)
	}
	return g, nil
}

// decodeSide builds the block table of one container side from its global
// offsets ptr (n+1 of them, spanning blob) and its adjacency blob. With
// alias each full block windows ptr, and every block shares the blob as a
// whole; otherwise each block copies its rows into arrays of its own,
// offsets rebased to 0. The last block's offsets are always a padded copy.
// A block whose offsets leave the blob gets no adjacency, for validateSide
// to refuse.
func decodeSide(n int, ptr []uint64, blob []byte, alias bool) side {
	s := make(side, numBlocks(n))
	var whole []uint32
	if alias {
		whole = u32view(blob, true)
	}
	for b := range s {
		lo, hi := blockSpan(b, n)
		if alias && hi-lo == blockRows {
			s[b] = rowBlock{(*blockPtr)(ptr[lo:]), whole}
			continue
		}
		p, adj, rebase := new(blockPtr), whole, uint64(0)
		if first, last := ptr[lo], ptr[hi]; !alias {
			adj = []uint32{}
			if first <= last && last <= uint64(len(blob)/4) {
				adj, rebase = u32view(blob[4*first:4*last], false), first
			}
		}
		for i := range p {
			p[i] = ptr[min(lo+i, hi)] - rebase
		}
		s[b] = rowBlock{p, adj}
	}
	return s
}

// inRowsSelfFirst moves each self-loop of an ascending in-side of m edges to
// the front of its row, in place, leaving the other sources in order.
func inRowsSelfFirst(s side, m int) {
	parallelRanges(uniformCuts(len(s), buildWorkers(m)), func(_, blo, bhi int) {
		for b := blo; b < bhi; b++ {
			blk := &s[b]
			for i := range blockRows {
				v := uint32(b<<blockShift + i)
				row := blk.adj[blk.ptr[i]:blk.ptr[i+1]]
				if j, ok := slices.BinarySearch(row, v); ok {
					copy(row[1:j+1], row[:j])
					row[0] = v
				}
			}
		}
	})
}

// leHost reports whether the host lays out integers little-endian — the
// container's wire order — in which case each array encodes and decodes as
// one block copy (or an aliased view) instead of an element-wise loop. The
// element-wise fallback keeps the format portable to big-endian hosts.
var leHost = func() bool {
	x := uint16(0x0102)
	return *(*byte)(unsafe.Pointer(&x)) == 0x02
}()

// appendU32s appends xs little-endian onto dst; one block copy on LE hosts.
func appendU32s(dst []byte, xs []uint32) []byte {
	if len(xs) == 0 {
		return dst
	}
	if leHost {
		return append(dst, unsafe.Slice((*byte)(unsafe.Pointer(&xs[0])), 4*len(xs))...)
	}
	le := binary.LittleEndian
	for _, x := range xs {
		dst = le.AppendUint32(dst, x)
	}
	return dst
}

// u64view decodes b (little-endian uint64s) into a []uint64. With alias
// set, a little-endian host, and an 8-aligned buffer it returns a view over
// b itself; otherwise it copies. Checkpoint payloads sit at arbitrary
// offsets inside their files, so the alignment check is a runtime decision,
// not an invariant.
func u64view(b []byte, alias bool) []uint64 {
	n := len(b) / 8
	if n == 0 {
		return []uint64{}
	}
	if alias && leHost && uintptr(unsafe.Pointer(&b[0]))%8 == 0 {
		return unsafe.Slice((*uint64)(unsafe.Pointer(&b[0])), n)
	}
	out := make([]uint64, n)
	if leHost {
		copy(unsafe.Slice((*byte)(unsafe.Pointer(&out[0])), 8*n), b)
	} else {
		le := binary.LittleEndian
		for i := range out {
			out[i] = le.Uint64(b[8*i:])
		}
	}
	return out
}

// u32view is u64view for uint32 arrays (4-byte alignment suffices).
func u32view(b []byte, alias bool) []uint32 {
	n := len(b) / 4
	if n == 0 {
		return []uint32{}
	}
	if alias && leHost && uintptr(unsafe.Pointer(&b[0]))%4 == 0 {
		return unsafe.Slice((*uint32)(unsafe.Pointer(&b[0])), n)
	}
	out := make([]uint32, n)
	if leHost {
		copy(unsafe.Slice((*byte)(unsafe.Pointer(&out[0])), 4*n), b)
	} else {
		le := binary.LittleEndian
		for i := range out {
			out[i] = le.Uint32(b[4*i:])
		}
	}
	return out
}
