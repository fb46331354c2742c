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
	"bufio"
	"fmt"
	"os"

	"dfpr/internal/graph"
)

// WriteCSRFile writes g to path as a DFPRCSR1 container, replacing any
// existing file. The container streams to a temp file through a buffered
// writer, so the write holds no graph-sized buffer, and the rename puts it
// in place, so a crash mid-write cannot leave a truncated container at
// path.
func WriteCSRFile(path string, g *graph.CSR) error {
	tmp := path + ".tmp"
	err := func() error {
		f, err := os.Create(tmp)
		if err != nil {
			return err
		}
		bw := bufio.NewWriterSize(f, 1<<16)
		err = g.WriteContainer(bw)
		if err == nil {
			err = bw.Flush()
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err == nil {
			err = os.Rename(tmp, path)
		}
		return err
	}()
	if err != nil {
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
