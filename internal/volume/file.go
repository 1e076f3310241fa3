package volume

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// WriteGridFile atomically serializes g to path: the bytes are written
// to a temporary file in the same directory, fsynced, and renamed into
// place, so a crash mid-write never leaves a torn map where a resuming
// reader expects a complete one. The cycle journal records a map's
// content digest before the path is trusted, so the rename is the
// durability point, not a correctness requirement. On failure the
// temporary file is closed and removed; an error doing so is joined to
// the returned one, so a leaked temporary file is never silent.
func WriteGridFile(path string, g *Grid) (err error) {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("volume: writing grid file: %w", err)
	}
	tmp := f.Name()
	defer func() {
		if err != nil {
			cerr := f.Close()
			if errors.Is(cerr, os.ErrClosed) {
				cerr = nil // closed already; the rename failed
			}
			err = errors.Join(err, cerr, os.Remove(tmp))
		}
	}()
	if _, err = g.WriteTo(f); err != nil {
		return fmt.Errorf("volume: writing grid file: %w", err)
	}
	if err = f.Sync(); err != nil {
		return fmt.Errorf("volume: syncing grid file: %w", err)
	}
	if err = f.Close(); err != nil {
		return fmt.Errorf("volume: closing grid file: %w", err)
	}
	if err = os.Rename(tmp, path); err != nil {
		return fmt.Errorf("volume: publishing grid file: %w", err)
	}
	return nil
}

// ReadGridFile deserializes a grid written by WriteGridFile. The file
// must be exactly as long as its header's grid size implies; that is
// checked before any sample is read, so a damaged header, a truncated
// file or trailing bytes cost an error, never an allocation.
func ReadGridFile(path string) (*Grid, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("volume: reading grid file: %w", err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("volume: reading grid file: %w", err)
	}
	var hdr [gridHeaderLen]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		return nil, fmt.Errorf("volume: reading grid file %s header: %w", path, err)
	}
	l, err := parseGridHeader(hdr)
	if err != nil {
		return nil, fmt.Errorf("volume: reading grid file %s: %w", path, err)
	}
	if want := gridBytes(l); fi.Size() != want {
		return nil, fmt.Errorf("volume: grid file %s holds %d bytes, a %d³ grid takes %d", path, fi.Size(), l, want)
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, fmt.Errorf("volume: reading grid file: %w", err)
	}
	return ReadGrid(f)
}
