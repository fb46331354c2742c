package gio

// Binary CSR graph files. WriteCSRFile serialises a snapshot as one
// DFPRCSR1 container (see internal/graph/container.go — the same layout
// durability checkpoints embed), and LoadCSRMapped memory-maps it back with
// zero parsing: on a little-endian host the offset and adjacency arrays are
// aliased straight out of the page-aligned mapping, so a warm load costs
// validation only, no text scanning, no allocation proportional to the
// graph. This is the restart path the paper's regime needs — billion-edge
// graphs cannot be re-parsed from text on every run.

import (
	"fmt"
	"os"

	"dfpr/internal/graph"
)

// csrFileOptions configures WriteCSRFile.
type csrFileOptions struct {
	compressed bool
}

// CSRFileOption configures WriteCSRFile.
type CSRFileOption func(*csrFileOptions)

// WithCompressedEdges selects the delta-compressed (varint within sorted
// adjacency) edge-array layout. It roughly halves the file and the resident
// footprint of the loaded graph, in exchange for row-at-a-time decoding
// (graph.CompressedCSR.AppendIn) or a one-time decompression on load.
func WithCompressedEdges() CSRFileOption {
	return func(o *csrFileOptions) { o.compressed = true }
}

// WriteCSRFile writes g to path as a DFPRCSR1 container, replacing any
// existing file. The write goes through a temp file + rename so a crash
// mid-write cannot leave a truncated container at path.
func WriteCSRFile(path string, g *graph.CSR, opts ...CSRFileOption) error {
	var o csrFileOptions
	for _, opt := range opts {
		opt(&o)
	}
	var payload []byte
	if o.compressed {
		c := graph.CompressCSR(g)
		payload = c.AppendContainer(make([]byte, 0, c.ContainerSize()))
	} else {
		payload = g.AppendContainer(make([]byte, 0, g.ContainerSize()))
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, payload, 0o644); err != nil {
		return fmt.Errorf("gio: write CSR file: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("gio: write CSR file: %w", err)
	}
	return nil
}

// MappedCSR is a graph backed by a memory-mapped (or, on platforms without
// mmap support, fully read) container file. The CSR it exposes aliases the
// mapping, so the MappedCSR must stay alive — not Closed — for as long as
// any engine or snapshot built from the graph is in use.
type MappedCSR struct {
	data   []byte
	mapped bool
	g      *graph.CSR
	c      *graph.CompressedCSR
	plain  *graph.CSR // memoized Decompress() for compressed containers
}

// LoadCSRMapped opens a DFPRCSR1 container file and maps it read-only.
// Structural validation runs on the mapped bytes; the graph arrays alias
// the mapping where alignment and endianness allow, and are copied out
// otherwise, so the result is correct either way.
func LoadCSRMapped(path string) (*MappedCSR, error) {
	data, mapped, err := mapFile(path)
	if err != nil {
		return nil, fmt.Errorf("gio: map CSR file: %w", err)
	}
	g, c, err := graph.DecodeContainer(data, true)
	if err != nil {
		unmapFile(data, mapped)
		return nil, err
	}
	return &MappedCSR{data: data, mapped: mapped, g: g, c: c}, nil
}

// Compressed returns the delta-compressed graph, or nil for a plain
// container.
func (m *MappedCSR) Compressed() *graph.CompressedCSR { return m.c }

// CSR returns the plain snapshot. For a compressed container this
// decompresses once and memoizes — callers that want to stay in the
// compressed footprint should decode rows from Compressed instead.
func (m *MappedCSR) CSR() *graph.CSR {
	if m.g != nil {
		return m.g
	}
	if m.plain == nil {
		m.plain = m.c.Decompress()
	}
	return m.plain
}

// FileBytes returns the container size on disk.
func (m *MappedCSR) FileBytes() int { return len(m.data) }

// ResidentBytes returns the resident size of the graph arrays the kernels
// would touch: the compressed footprint when the container is compressed
// (and not yet decompressed), the plain footprint otherwise.
func (m *MappedCSR) ResidentBytes() int {
	if m.c != nil && m.plain == nil {
		return m.c.Bytes()
	}
	return m.CSR().Bytes()
}

// Close releases the mapping. The graphs returned by CSR/Compressed alias
// the mapping and must not be used after Close (a decompressed plain CSR
// from a compressed container is the one exception — Decompress copies).
func (m *MappedCSR) Close() error {
	if m.data == nil {
		return nil
	}
	err := unmapFile(m.data, m.mapped)
	m.data, m.g, m.c = nil, nil, nil
	return err
}
