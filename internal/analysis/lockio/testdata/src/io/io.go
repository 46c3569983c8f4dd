// Package io exercises lockio: direct and helper-wrapped file I/O under an
// in-memory mutex, I/O after release, the owns-file exemption, and net/http
// calls told apart by receiver type.
package io

import (
	"net/http"
	"os"
	"sync"
)

type store struct {
	mu   sync.Mutex
	data map[string]string
}

func (s *store) bad(path string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	_ = os.Remove(path) // want "I/O call os.Remove while s.mu is held"
}

func (s *store) good(path string) {
	s.mu.Lock()
	delete(s.data, path)
	s.mu.Unlock()
	_ = os.Remove(path)
}

func touchFile(path string) {
	f, err := os.Create(path)
	if err == nil {
		_ = f.Close()
	}
}

func (s *store) badHelper(path string) {
	s.mu.Lock()
	touchFile(path) // want "I/O call touchFile while s.mu is held"
	s.mu.Unlock()
}

func (s *store) goodHelper(path string) {
	touchFile(path)
}

type wal struct {
	mu sync.Mutex
	f  *os.File
}

// flush serializes writes to the file the wal owns: its mutex IS the
// file's lock, so holding it across the sync is the contract.
func (w *wal) flush() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.f.Sync()
}

// retryAfter reads a response header under the lock: http.Header.Get is a
// map read, not a network call.
func (s *store) retryAfter(resp *http.Response) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return resp.Header.Get("Retry-After")
}

// fetch issues a request under the lock: the package function http.Get is
// network I/O even though it shares the method's name.
func (s *store) fetch(url string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	resp, err := http.Get(url) // want "I/O call net/http.Get while s.mu is held"
	if err == nil {
		_ = resp.Body.Close()
	}
}
