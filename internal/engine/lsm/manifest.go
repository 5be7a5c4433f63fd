package lsm

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"rstore/internal/engine/reclog"
	"rstore/internal/types"
)

// The MANIFEST is the root of the tree: a small text file naming the live
// WAL and every live SSTable with the user table whose run it belongs to,
// committed by write-to-temp + fsync + rename + directory fsync. The rename
// is the single commit point for flush, compaction, retirement and reset —
// any sst-*.sst or wal-*.log the MANIFEST does not reference is debris from
// a crash between file creation and commit, and Open deletes it. The lines
// of one user table are in age order (oldest first), which is what gives
// reads and merges their shadowing rule: an entry in a younger table
// supersedes the same key in any older table of the same run.
//
// Format, line by line:
//
//	rstore-lsm v2
//	next <seq>            — next unused file sequence number
//	wal <seq>             — the live write-ahead log, wal-<seq>.log
//	sst <seq> <table>     — one per live SSTable; <table> is the user table,
//	                        quoted as a Go string literal (strconv.Quote)
//
// A v1 manifest ("rstore-lsm v1") is refused: every v1 directory holds a
// store older than core reads.
const (
	manifestName     = "MANIFEST"
	manifestHeader   = "rstore-lsm v2"
	manifestHeaderV1 = "rstore-lsm v1"
)

// manifestTable is one sst line.
type manifestTable struct {
	seq   int64
	table string // the user table
}

type manifest struct {
	nextSeq int64
	walSeq  int64
	ssts    []manifestTable
}

// writeManifest atomically commits m.
func writeManifest(dir string, m manifest) error {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s\nnext %d\nwal %d\n", manifestHeader, m.nextSeq, m.walSeq)
	for _, t := range m.ssts {
		fmt.Fprintf(&sb, "sst %d %s\n", t.seq, strconv.Quote(t.table))
	}
	return reclog.WriteFileAtomic(filepath.Join(dir, manifestName), func(w io.Writer) error {
		_, err := io.WriteString(w, sb.String())
		return err
	})
}

// readManifest parses dir/MANIFEST. exists is false when the file is absent
// (a directory never initialized, or a crash before first commit); any
// other defect is corruption, not a fresh start.
func readManifest(dir string) (m manifest, exists bool, err error) {
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if os.IsNotExist(err) {
		return manifest{}, false, nil
	}
	if err != nil {
		return manifest{}, false, fmt.Errorf("lsm: %w", err)
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if lines[0] == manifestHeaderV1 {
		return manifest{}, false, fmt.Errorf("%w: lsm manifest v1 (this build reads v2; re-initialize the store)", types.ErrCorrupt)
	}
	if len(lines) < 3 || lines[0] != manifestHeader {
		return manifest{}, false, fmt.Errorf("%w: lsm manifest header", types.ErrCorrupt)
	}
	// num parses the sequence number of a "<key> <seq>[ <rest>]" line.
	num := func(line, key string) (seq int64, rest string, err error) {
		body, ok := strings.CutPrefix(line, key+" ")
		if !ok {
			return 0, "", fmt.Errorf("%w: lsm manifest: want %q line, got %q", types.ErrCorrupt, key, line)
		}
		digits, rest, _ := strings.Cut(body, " ")
		seq, err = strconv.ParseInt(digits, 10, 64)
		if err != nil || seq < 0 {
			return 0, "", fmt.Errorf("%w: lsm manifest %s %q", types.ErrCorrupt, key, body)
		}
		return seq, rest, nil
	}
	var rest string
	if m.nextSeq, rest, err = num(lines[1], "next"); err != nil || rest != "" {
		return manifest{}, false, fmt.Errorf("%w: lsm manifest next line %q", types.ErrCorrupt, lines[1])
	}
	if m.walSeq, rest, err = num(lines[2], "wal"); err != nil || rest != "" {
		return manifest{}, false, fmt.Errorf("%w: lsm manifest wal line %q", types.ErrCorrupt, lines[2])
	}
	for _, line := range lines[3:] {
		var t manifestTable
		if t.seq, rest, err = num(line, "sst"); err != nil {
			return manifest{}, false, err
		}
		if t.table, err = strconv.Unquote(rest); err != nil {
			return manifest{}, false, fmt.Errorf("%w: lsm manifest sst line %q", types.ErrCorrupt, line)
		}
		m.ssts = append(m.ssts, t)
	}
	return m, true, nil
}
