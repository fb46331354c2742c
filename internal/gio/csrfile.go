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

// WriteCSRFile writes g to path as a DFPRCSR1 container, replacing any
// existing file. The write goes through a temp file + rename so a crash
// mid-write cannot leave a truncated container at path.
func WriteCSRFile(path string, g *graph.CSR) error {
	payload := g.AppendContainer(make([]byte, 0, g.ContainerSize()))
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
	g, err := graph.DecodeContainer(data, true)
	if err != nil {
		unmapFile(data, mapped)
		return nil, err
	}
	return &MappedCSR{data: data, mapped: mapped, g: g}, nil
}

// CSR returns the snapshot.
func (m *MappedCSR) CSR() *graph.CSR { return m.g }

// FileBytes returns the container size on disk.
func (m *MappedCSR) FileBytes() int { return len(m.data) }

// Close releases the mapping. The graph returned by CSR aliases the mapping
// and must not be used after Close.
func (m *MappedCSR) Close() error {
	if m.data == nil {
		return nil
	}
	err := unmapFile(m.data, m.mapped)
	m.data, m.g = nil, nil
	return err
}
