package wal

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"dbp/internal/fanout"
)

// Meta pins the service configuration a data directory was written
// under. Records are routed to shards by job-ID hash and replayed into
// streams of a specific dimension/policy, so reopening a directory
// under different flags would silently misroute or misplace every
// event — OpenStore refuses instead.
type Meta struct {
	Version   int     `json:"version"`
	Shards    int     `json:"shards"`
	Dim       int     `json:"dim"`
	Capacity  float64 `json:"capacity"`
	KeepAlive float64 `json:"keep_alive"`
	Algorithm string  `json:"algorithm"`
}

// metaVersion is the current data-directory layout version.
const metaVersion = 1

// metaFile is the config guard at the data-dir root.
const metaFile = "META.json"

// Store is a data directory holding one Log per shard plus the META
// config guard.
type Store struct {
	logs []*Log
}

// OpenStore opens (or initializes) the data directory for the given
// configuration. A fresh directory is stamped with meta; an existing
// one must match it exactly, field for field. Every shard's log is
// opened with opts, so its SyncObserver sees the fsyncs of all shards.
func OpenStore(dir string, meta Meta, opts Options) (*Store, error) {
	if meta.Shards < 1 {
		return nil, fmt.Errorf("wal: store needs at least 1 shard")
	}
	meta.Version = metaVersion
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(dir, metaFile)
	if buf, err := os.ReadFile(path); err == nil {
		var got Meta
		if err := json.Unmarshal(buf, &got); err != nil {
			return nil, fmt.Errorf("wal: %s is unreadable: %v", path, err)
		}
		if err := matchMeta(got, meta); err != nil {
			return nil, fmt.Errorf("wal: data dir %s was written under a different configuration: %w", dir, err)
		}
	} else if !os.IsNotExist(err) {
		return nil, err
	} else {
		buf, err := json.MarshalIndent(meta, "", "  ")
		if err != nil {
			return nil, err
		}
		tmp := path + ".tmp"
		if err := os.WriteFile(tmp, append(buf, '\n'), 0o644); err != nil {
			return nil, err
		}
		if err := os.Rename(tmp, path); err != nil {
			os.Remove(tmp)
			return nil, err
		}
		if err := syncDir(dir); err != nil {
			return nil, err
		}
	}
	st := &Store{logs: make([]*Log, meta.Shards)}
	err := fanout.Each(meta.Shards, func(_, i int) error {
		l, err := Open(filepath.Join(dir, fmt.Sprintf("shard-%04d", i)), opts)
		if err != nil {
			return fmt.Errorf("wal: shard %d: %w", i, err)
		}
		st.logs[i] = l
		return nil
	})
	if err != nil {
		st.Close()
		return nil, err
	}
	return st, nil
}

// matchMeta returns a descriptive error for the first differing field.
func matchMeta(got, want Meta) error {
	switch {
	case got.Version != want.Version:
		return fmt.Errorf("layout version %d, this binary writes %d", got.Version, want.Version)
	case got.Shards != want.Shards:
		return fmt.Errorf("recorded shard count %d, flags say %d", got.Shards, want.Shards)
	case got.Dim != want.Dim:
		return fmt.Errorf("recorded dimension %d, flags say %d", got.Dim, want.Dim)
	case got.Capacity != want.Capacity:
		return fmt.Errorf("recorded capacity %g, flags say %g", got.Capacity, want.Capacity)
	case got.KeepAlive != want.KeepAlive:
		return fmt.Errorf("recorded keep-alive %g, flags say %g", got.KeepAlive, want.KeepAlive)
	case got.Algorithm != want.Algorithm:
		return fmt.Errorf("recorded algorithm %q, flags say %q", got.Algorithm, want.Algorithm)
	}
	return nil
}

// Each calls fn with every shard's log at once, on at most GOMAXPROCS
// goroutines, and returns once every call has returned: nil, or the
// error of the lowest-indexed shard that failed.
func (s *Store) Each(fn func(i int, l *Log) error) error {
	return fanout.Each(len(s.logs), func(_, i int) error { return fn(i, s.logs[i]) })
}

// Close closes every shard log, returning the first error.
func (s *Store) Close() error {
	var first error
	for _, l := range s.logs {
		if l == nil {
			continue
		}
		if err := l.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
