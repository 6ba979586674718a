// Package checkpoint is a crash-tolerant key-value snapshot store for long
// sweep runs: an append-only JSONL file where each line records one
// completed unit of work under a content-derived text key (simcache's
// ConfigKey plus the fault model's Key). Killing a sweep mid-run loses at
// most the in-flight points; reopening the file and re-running the sweep
// skips every checkpointed point without re-simulating it.
//
// The format is deliberately dumb: one JSON object per line, later lines
// win, a torn final line (the signature of a kill during a write) is
// ignored on load. Writes append, fsync, and never rewrite earlier records.
package checkpoint

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
)

// record is one persisted line.
type record struct {
	Key   string          `json:"key"`
	Value json.RawMessage `json:"value"`
}

// Store is an open checkpoint file with its in-memory index.
type Store struct {
	mu   sync.Mutex
	f    *os.File
	done map[string]json.RawMessage
}

// Open opens (creating if absent) the checkpoint file at path and loads
// every intact record. A torn or corrupt line ends the load silently —
// everything before it is kept, which is exactly the at-most-one-lost-write
// guarantee an appending crash leaves behind.
func Open(path string) (*Store, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	s := &Store{f: f, done: map[string]json.RawMessage{}}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	var intact int64 // byte offset just past the last intact record
	for sc.Scan() {
		line := sc.Bytes()
		var r record
		if err := json.Unmarshal(line, &r); err != nil || r.Key == "" {
			break
		}
		s.done[r.Key] = r.Value
		intact += int64(len(line)) + 1
	}
	// The next append must start on a clean line boundary. A final record
	// that lost only its newline still loaded, so write the newline back:
	// an append glued onto it would make both records unparseable on the
	// next load. Any other torn tail is dropped.
	st, err := f.Stat()
	if err == nil && intact > st.Size() {
		_, err = f.WriteAt([]byte{'\n'}, st.Size())
	}
	if err == nil {
		err = f.Truncate(intact)
	}
	if err == nil {
		_, err = f.Seek(intact, 0)
	}
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	return s, nil
}

// Get unmarshals the checkpointed value for key into v and reports whether
// the key was present.
func (s *Store) Get(key string, v any) bool {
	if s == nil {
		return false
	}
	s.mu.Lock()
	raw, ok := s.done[key]
	s.mu.Unlock()
	if !ok {
		return false
	}
	return json.Unmarshal(raw, v) == nil
}

// Put appends a record for key and fsyncs it to disk. Concurrent Puts from
// sweep workers serialise on the store's lock, so lines never interleave.
func (s *Store) Put(key string, v any) error {
	if s == nil {
		return nil
	}
	raw, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	line, err := json.Marshal(record{Key: key, Value: raw})
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, err := s.f.Write(append(line, '\n')); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := s.f.Sync(); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	s.done[key] = raw
	return nil
}

// Len returns the number of checkpointed keys.
func (s *Store) Len() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.done)
}

// Close syncs and closes the underlying file, wrapping any failure so
// callers can both detect the subsystem (the "checkpoint:" prefix) and
// unwrap the cause (errors.Is(err, os.ErrClosed) after a double close).
// A dropped sync-on-close error would mean silently resuming from a file
// missing its tail, so sweeps must propagate this error, not defer it
// away. A nil store closes trivially.
func (s *Store) Close() error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.f.Sync(); err != nil {
		s.f.Close()
		return fmt.Errorf("checkpoint: sync on close: %w", err)
	}
	if err := s.f.Close(); err != nil {
		return fmt.Errorf("checkpoint: close: %w", err)
	}
	return nil
}
