package lsm

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"

	"rstore/internal/engine/reclog"
	"rstore/internal/types"
)

// The MANIFEST is the root of the tree: a small text file naming every live
// file with the user table it belongs to — each table's write-ahead log and
// the SSTables of its run — committed by write-to-temp + fsync + rename +
// directory fsync. The rename is the single commit point for flush,
// ingest, compaction and retirement. An sst-*.sst the MANIFEST does not name
// is debris from a crash between file creation and commit, and Open deletes
// it; so is a wal-*.log it does not name, unless the log's sequence number
// is at or past next: such a log was created after the commit, as a table's
// first (see recover). The lines of one user table are in age order (oldest
// first), which is what gives reads and merges their shadowing rule: an
// entry in a younger table supersedes the same key in any older table of
// the same run.
//
// Format, line by line:
//
//	rstore-lsm v4
//	next <seq>            — next unused file sequence number
//	wal <seq> <table>     — one per user table with a log, wal-<seq>.log; two,
//	                        the frozen one first, while its flush runs
//	sst <seq> <table>     — one per live SSTable
//
// <table> is the user table, quoted as a Go string literal (strconv.Quote).
// All wal lines come before the sst lines; no table has more than two wal
// lines, no two lines share a sequence number, and every one is below next.
//
// A v1 manifest (one SSTable list for every table), a v2 one (one log for
// every table) and a v3 one (SSTable keys prefixed with their table) are
// refused: a v1 or v2 directory holds a store older than core reads, and a
// v3 one SSTables this build does not read.
const (
	manifestName   = "MANIFEST"
	manifestHeader = "rstore-lsm v4"
)

// manifestFile is one wal or sst line.
type manifestFile struct {
	seq   int64
	table string // the user table
}

type manifest struct {
	nextSeq int64
	wals    []manifestFile
	ssts    []manifestFile
}

// writeManifest atomically commits m.
func writeManifest(fsys reclog.FS, dir string, m manifest) error {
	return reclog.WriteFileAtomic(fsys, filepath.Join(dir, manifestName), func(w io.Writer) error {
		_, err := io.WriteString(w, formatManifest(m))
		return err
	})
}

// formatManifest is what writeManifest writes.
func formatManifest(m manifest) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s\nnext %d\n", manifestHeader, m.nextSeq)
	for _, w := range m.wals {
		fmt.Fprintf(&sb, "wal %d %s\n", w.seq, strconv.Quote(w.table))
	}
	for _, t := range m.ssts {
		fmt.Fprintf(&sb, "sst %d %s\n", t.seq, strconv.Quote(t.table))
	}
	return sb.String()
}

// readManifest parses dir/MANIFEST. exists is false when the file is absent
// (a directory never initialized, or a crash before first commit); any
// other defect is corruption, not a fresh start.
func readManifest(fsys reclog.FS, dir string) (m manifest, exists bool, err error) {
	data, err := reclog.ReadFile(fsys, filepath.Join(dir, manifestName))
	if errors.Is(err, fs.ErrNotExist) {
		return manifest{}, false, nil
	}
	if err != nil {
		return manifest{}, false, fmt.Errorf("lsm: %w", err)
	}
	m, err = parseManifest(string(data))
	return m, err == nil, err
}

// parseManifest is readManifest's parser.
func parseManifest(data string) (manifest, error) {
	corrupt := func(format string, args ...any) (manifest, error) {
		return manifest{}, fmt.Errorf("%w: lsm manifest: "+format, append([]any{types.ErrCorrupt}, args...)...)
	}
	lines := strings.Split(strings.TrimSuffix(data, "\n"), "\n")
	if old, ok := strings.CutPrefix(lines[0], "rstore-lsm "); ok && (old == "v1" || old == "v2" || old == "v3") {
		return corrupt("%s (this build reads v4; re-initialize the store)", old)
	}
	if len(lines) < 2 || lines[0] != manifestHeader {
		return corrupt("header %q", lines[0])
	}
	// num parses the sequence number of a "<key> <seq>[ <rest>]" line.
	num := func(line, key string) (seq int64, rest string, ok bool) {
		body, ok := strings.CutPrefix(line, key+" ")
		if !ok {
			return 0, "", false
		}
		digits, rest, _ := strings.Cut(body, " ")
		seq, err := strconv.ParseInt(digits, 10, 64)
		return seq, rest, err == nil && seq >= 0
	}
	var m manifest
	var rest string
	var ok bool
	if m.nextSeq, rest, ok = num(lines[1], "next"); !ok || rest != "" {
		return corrupt("next line %q", lines[1])
	}
	seqs := map[int64]bool{}
	logged := map[string]int{}
	for _, line := range lines[2:] {
		kind, _, _ := strings.Cut(line, " ")
		if kind != "wal" && kind != "sst" || kind == "wal" && len(m.ssts) > 0 {
			return corrupt("line %q", line)
		}
		var f manifestFile
		if f.seq, rest, ok = num(line, kind); !ok {
			return corrupt("line %q", line)
		}
		var err error
		if f.table, err = strconv.Unquote(rest); err != nil {
			return corrupt("line %q", line)
		}
		if seqs[f.seq] || f.seq >= m.nextSeq {
			return corrupt("sequence %d repeated or not below next %d", f.seq, m.nextSeq)
		}
		seqs[f.seq] = true
		if kind == "sst" {
			m.ssts = append(m.ssts, f)
			continue
		}
		if logged[f.table] == 2 {
			return corrupt("three logs for table %q", f.table)
		}
		logged[f.table]++
		m.wals = append(m.wals, f)
	}
	return m, nil
}
