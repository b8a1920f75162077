package atomicio

import (
	"os"
	"path/filepath"
	"testing"
)

// onlyFile asserts dir holds exactly one entry, name — in particular no
// *.tmp-* sibling left behind by a write.
func onlyFile(t *testing.T, dir, name string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != name {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Fatalf("directory holds %v, want only %q", names, name)
	}
}

// TestWriteFileReplacesWhole: a write creates the file, a second write
// replaces the content whole (shorter data leaves no tail of the longer
// old content), the mode is 0644, and neither leaves a temp sibling.
func TestWriteFileReplacesWhole(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "manifest.json")
	for _, data := range []string{"the first, longer content", "second", ""} {
		if err := WriteFile(path, []byte(data)); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil || string(got) != data {
			t.Fatalf("read back %q (err %v), want %q", got, err, data)
		}
		onlyFile(t, dir, "manifest.json")
	}
	info, err := os.Stat(path)
	if err != nil || info.Mode().Perm() != 0o644 {
		t.Fatalf("mode %v (err %v), want 0644", info.Mode().Perm(), err)
	}
}

// TestWriteFileFailureKeepsOldContent: when the write cannot complete —
// the destination directory is read-only, or has been replaced by a plain
// file — WriteFile returns an error, the previous content is intact and
// no temp file is left behind.
func TestWriteFileFailureKeepsOldContent(t *testing.T) {
	t.Run("read-only directory", func(t *testing.T) {
		if os.Getuid() == 0 {
			t.Skip("root ignores directory permissions")
		}
		dir := t.TempDir()
		path := filepath.Join(dir, "selector.json")
		if err := WriteFile(path, []byte("old")); err != nil {
			t.Fatal(err)
		}
		if err := os.Chmod(dir, 0o555); err != nil {
			t.Fatal(err)
		}
		defer os.Chmod(dir, 0o755) // let TempDir clean up
		if err := WriteFile(path, []byte("new")); err == nil {
			t.Fatal("write into a read-only directory succeeded")
		}
		if got, err := os.ReadFile(path); err != nil || string(got) != "old" {
			t.Fatalf("old content damaged: %q (err %v)", got, err)
		}
		onlyFile(t, dir, "selector.json")
	})

	t.Run("directory replaced by a file", func(t *testing.T) {
		root := t.TempDir()
		dir := filepath.Join(root, "models")
		if err := os.WriteFile(dir, []byte("not a directory"), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := WriteFile(filepath.Join(dir, "selector.json"), []byte("new")); err == nil {
			t.Fatal("write under a non-directory succeeded")
		}
		if got, err := os.ReadFile(dir); err != nil || string(got) != "not a directory" {
			t.Fatalf("the file in the directory's place was damaged: %q (err %v)", got, err)
		}
		onlyFile(t, root, "models")
	})

	// The rename is the last step that can fail after the temp file is
	// fully written: a directory sitting at the destination path refuses
	// it, and the deferred cleanup must still remove the temp file.
	t.Run("destination is a directory", func(t *testing.T) {
		dir := t.TempDir()
		path := filepath.Join(dir, "selector.json")
		if err := os.Mkdir(path, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(path, "keep"), []byte("old"), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := WriteFile(path, []byte("new")); err == nil {
			t.Fatal("rename over a non-empty directory succeeded")
		}
		if got, err := os.ReadFile(filepath.Join(path, "keep")); err != nil || string(got) != "old" {
			t.Fatalf("destination damaged: %q (err %v)", got, err)
		}
		onlyFile(t, dir, "selector.json")
	})
}
