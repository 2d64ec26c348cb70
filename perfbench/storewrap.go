package main

import (
	"time"

	"pacram/internal/runner"
)

// timedStore wraps the runner.Store a traced round passes in
// RunOptions.Store and records one span per Get and Put. It forwards
// every call unchanged, so the wrapped store sees, and the caller gets,
// exactly what they would without it.
type timedStore struct {
	inner   runner.Store
	tr      *tracer
	traceID string
	parent  int64
}

func (s *timedStore) Get(hash string) ([]byte, bool, error) {
	id := s.tr.newID()
	start := time.Now()
	data, ok, err := s.inner.Get(hash)
	hit := int64(0)
	if ok {
		hit = 1
	}
	s.tr.add(id, s.parent, s.traceID, "store.get", start, time.Now(), map[string]int64{"hit": hit})
	return data, ok, err
}

func (s *timedStore) Put(hash string, data []byte) error {
	id := s.tr.newID()
	start := time.Now()
	err := s.inner.Put(hash, data)
	s.tr.add(id, s.parent, s.traceID, "store.put", start, time.Now(), map[string]int64{"bytes": int64(len(data))})
	return err
}

func (s *timedStore) Stats() runner.TierStats { return s.inner.Stats() }

// Locate forwards to the wrapped store, so corrupt-entry warnings still
// name the entry's location.
func (s *timedStore) Locate(hash string) string {
	if l, ok := s.inner.(runner.Locator); ok {
		return l.Locate(hash)
	}
	return ""
}
