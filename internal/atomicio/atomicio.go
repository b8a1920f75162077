// Package atomicio provides the one crash-safe file-write sequence the
// persistence layers share (selector files, the model manifest): bytes go
// to a temp file in the destination directory, are fsynced, and the file
// is renamed over the destination — so a reader (or a restart) only ever
// sees the old complete file or the new complete file, never a torn one.
package atomicio

import (
	"fmt"
	"os"
	"path/filepath"
)

// WriteFile atomically replaces path with data (mode 0644).
func WriteFile(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("atomicio: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("atomicio: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("atomicio: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("atomicio: %w", err)
	}
	if err := os.Chmod(tmp.Name(), 0o644); err != nil {
		return fmt.Errorf("atomicio: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("atomicio: %w", err)
	}
	// The rename itself lives in the directory, so the directory must be
	// fsynced too — otherwise a power loss can forget the rename while
	// keeping later directory updates (e.g. a garbage collection that
	// already deleted the files the surviving old state references).
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("atomicio: %w", err)
	}
	if err := d.Sync(); err != nil {
		d.Close()
		return fmt.Errorf("atomicio: sync dir: %w", err)
	}
	if err := d.Close(); err != nil {
		return fmt.Errorf("atomicio: %w", err)
	}
	return nil
}
