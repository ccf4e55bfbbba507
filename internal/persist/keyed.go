package persist

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"comfedsv/internal/faultinject"
	"comfedsv/internal/fl"
)

// keyed is the durable-file core JobStore and RunStore share: one
// directory of `<id><suffix>` files whose IDs obey ValidJobID. Whole
// artifacts are written atomically (temp file + fsync + rename), logs
// grow by fsynced single-write appends, and every rename and remove is
// made durable by a directory sync.
type keyed struct {
	dir  string
	kind string // "job" or "run", named in errors
}

func openKeyed(dir, kind string) (keyed, error) {
	if dir == "" {
		return keyed{}, fmt.Errorf("persist: empty %s store directory", kind)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return keyed{}, fmt.Errorf("persist: creating %s store: %w", kind, err)
	}
	return keyed{dir: dir, kind: kind}, nil
}

// ValidJobID reports whether id is usable as a job or run key: non-empty,
// at most 128 bytes, and limited to [A-Za-z0-9._-] with no leading dot —
// which keeps every key a single safe file-name component.
func ValidJobID(id string) bool {
	if id == "" || len(id) > 128 || id[0] == '.' {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case c == '.' || c == '_' || c == '-':
		default:
			return false
		}
	}
	return true
}

func (k keyed) path(id, suffix string) (string, error) {
	if !ValidJobID(id) {
		return "", fmt.Errorf("persist: invalid %s id %q", k.kind, id)
	}
	return filepath.Join(k.dir, id+suffix), nil
}

// has reports whether id's file with the given suffix exists.
func (k keyed) has(id, suffix string) bool {
	path, err := k.path(id, suffix)
	if err != nil {
		return false
	}
	_, err = os.Stat(path)
	return err == nil
}

// modTime returns the modification time of id's file with the given
// suffix.
func (k keyed) modTime(id, suffix string) (time.Time, error) {
	path, err := k.path(id, suffix)
	if err != nil {
		return time.Time{}, err
	}
	info, err := os.Stat(path)
	if err != nil {
		return time.Time{}, fmt.Errorf("persist: %w", err)
	}
	return info.ModTime(), nil
}

// list returns the sorted IDs of every file with the given suffix.
// Names that are not valid IDs are foreign files and are skipped.
func (k keyed) list(suffix string) ([]string, error) {
	entries, err := os.ReadDir(k.dir)
	if err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	var ids []string
	for _, e := range entries {
		id, ok := strings.CutSuffix(e.Name(), suffix)
		if ok && !e.IsDir() && ValidJobID(id) {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	return ids, nil
}

// remove deletes id's files with the given suffixes and fsyncs the
// directory so the deletion is durable. Missing files are not an error.
func (k keyed) remove(id string, suffixes ...string) error {
	for _, suffix := range suffixes {
		path, err := k.path(id, suffix)
		if err != nil {
			return err
		}
		if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("persist: %w", err)
		}
	}
	return syncDir(k.dir)
}

// saveRun atomically persists a training trace as id's run file.
func (k keyed) saveRun(id string, run *fl.Run) error {
	return k.writeFile(id, runSuffix, func(f *os.File) error { return SaveRun(f, run) })
}

// loadRun reads the training trace stored as id's run file, whole: the
// file size sizes the one read.
func (k keyed) loadRun(id string) (*fl.Run, error) {
	path, err := k.path(id, runSuffix)
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	return decodeRun(data)
}

// writeFile atomically writes id's file with the given suffix via temp
// file + fsync + rename + directory sync, so a crashed writer never leaves
// a half-written artifact behind a valid name.
func (k keyed) writeFile(id, suffix string, write func(*os.File) error) error {
	path, err := k.path(id, suffix)
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(k.dir, ".tmp-*")
	if err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	defer os.Remove(tmp.Name())
	if err := write(tmp); err != nil {
		tmp.Close()
		return err
	}
	// Flush data before the rename: on common filesystems a rename can
	// survive a crash that the unsynced data does not, which would leave a
	// truncated artifact behind a valid name.
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("persist: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	return syncDir(k.dir)
}

// readFile opens id's file with the given suffix and hands it to read.
func (k keyed) readFile(id, suffix string, read func(*os.File) error) error {
	path, err := k.path(id, suffix)
	if err != nil {
		return err
	}
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	defer f.Close()
	return read(f)
}

// syncDir fsyncs a directory so a just-completed rename or remove of an
// entry in it is durable. A failure is surfaced, never swallowed: an
// unsynced directory update can be undone by a crash, resurrecting a
// name the caller believes is gone or losing one it believes exists.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("persist: opening directory for sync: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("persist: syncing directory: %w", err)
	}
	return nil
}

// appendLog describes one kind of append-only JSON-lines log: a job's
// task journal or a run's cell-cache sidecar. Each line is one record,
// written in a single O_APPEND write and fsynced before the append
// returns, so a crash can only ever tear the trailing line.
type appendLog struct {
	name          string // named in errors
	suffix        string // live file
	corruptSuffix string // quarantined copy
	before, after string // faultinject ops around an append
	errCorrupt    error  // wrapped by a complete line that does not decode
}

// appendLine durably appends rec to id's log as one JSON line: marshal,
// one O_APPEND write, fsync. The hook, if non-nil, is consulted at pt with
// the log's before op ahead of the write (a crash there loses the line)
// and its after op once the line is durable (a crash there keeps it).
func (k keyed) appendLine(log appendLog, id string, rec any, hook faultinject.Hook, pt faultinject.Point) error {
	path, err := k.path(id, log.suffix)
	if err != nil {
		return err
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("persist: encoding %s record: %w", log.name, err)
	}
	line = append(line, '\n')
	if err := fire(hook, pt, log.before); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("persist: opening %s: %w", log.name, err)
	}
	_, err = f.Write(line)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("persist: appending %s record: %w", log.name, err)
	}
	return fire(hook, pt, log.after)
}

// fire consults hook, if non-nil, at pt with the given op.
func fire(hook faultinject.Hook, pt faultinject.Point, op string) error {
	if hook == nil {
		return nil
	}
	pt.Op = op
	return hook(pt)
}

// readLines decodes id's log, one record per line. Only
// newline-terminated lines are durable records: a trailing fragment is the
// torn write of a dying process and is dropped silently, while a complete
// line that does not decode wraps the log's errCorrupt so the caller can
// quarantine the file. A missing log returns the os error.
func readLines[T any](k keyed, log appendLog, id string, decode func(line []byte) (T, error)) ([]T, error) {
	path, err := k.path(id, log.suffix)
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("persist: reading %s: %w", log.name, err)
	}
	data = data[:bytes.LastIndexByte(data, '\n')+1]
	var recs []T
	for lineNo, line := range bytes.Split(data, []byte{'\n'}) {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		rec, err := decode(line)
		if err != nil {
			return nil, fmt.Errorf("%w: %s line %d: %v", log.errCorrupt, id, lineNo+1, err)
		}
		recs = append(recs, rec)
	}
	return recs, nil
}

// decodeStrict decodes a line's JSON record, rejecting unknown fields and
// anything but whitespace after the record.
func decodeStrict[T any](line []byte) (T, error) {
	var rec T
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&rec); err != nil {
		return rec, err
	}
	if _, err := dec.Token(); err != io.EOF {
		return rec, errors.New("data after the record")
	}
	return rec, nil
}

// quarantine renames id's log to its corrupt name so a damaged file stops
// being read on every start but stays available for inspection, then
// fsyncs the directory — without the sync, a crash right after the rename
// can resurrect the damaged log. The hook, if non-nil, is consulted
// between the rename and the directory sync (faultinject.OpQuarantine,
// the crash window the resurrection chaos suites target). It returns the
// quarantine path.
func (k keyed) quarantine(log appendLog, id string, hook faultinject.Hook) (string, error) {
	path, err := k.path(id, log.suffix)
	if err != nil {
		return "", err
	}
	dst, err := k.path(id, log.corruptSuffix)
	if err != nil {
		return "", err
	}
	if err := os.Rename(path, dst); err != nil {
		return "", fmt.Errorf("persist: quarantining %s: %w", log.name, err)
	}
	pt := faultinject.Point{Stage: "quarantine", Shard: -1, JobID: id}
	if err := fire(hook, pt, faultinject.OpQuarantine); err != nil {
		return "", err
	}
	if err := syncDir(k.dir); err != nil {
		return "", err
	}
	return dst, nil
}
