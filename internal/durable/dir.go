package durable

import (
	"os"
	"path/filepath"
)

// oldDirSuffix marks the previous image during an atomic directory
// swap; RecoverDirSwap finishes a swap a crash interrupted.
const oldDirSuffix = ".old"

// AtomicReplaceDir writes a directory image via write into a temp
// sibling, then swaps it over dir: rename the old image aside, rename
// the new one in, remove the old. A crash at any point leaves either the
// complete old image (possibly under the .old name, which RecoverDirSwap
// renames back) or the complete new one — never a mix of the two.
//
// The swap is durable against power loss, not just process death: every
// file in the new image is fsynced before the renames, and the parent
// directory is fsynced after them, so a checkpoint that discards WAL
// records (see WAL.Rotate) never rests on an image still sitting in the
// page cache. Temp siblings orphaned by a crash mid-write are swept on
// the next save.
func AtomicReplaceDir(dir string, write func(tmp string) error) error {
	parent := filepath.Dir(dir)
	if err := os.MkdirAll(parent, 0o755); err != nil {
		return err
	}
	sweepTempDirs(parent, filepath.Base(dir))
	tmp, err := os.MkdirTemp(parent, ".saving-"+filepath.Base(dir)+"-*")
	if err != nil {
		return err
	}
	if err := write(tmp); err != nil {
		os.RemoveAll(tmp)
		return err
	}
	if err := syncTree(tmp); err != nil {
		os.RemoveAll(tmp)
		return err
	}
	if _, err := os.Stat(dir); err == nil {
		old := dir + oldDirSuffix
		if err := os.RemoveAll(old); err != nil {
			os.RemoveAll(tmp)
			return err
		}
		if err := os.Rename(dir, old); err != nil {
			os.RemoveAll(tmp)
			return err
		}
		if err := os.Rename(tmp, dir); err != nil {
			// Best effort: put the old image back so the store stays openable.
			os.Rename(old, dir)
			os.RemoveAll(tmp)
			return err
		}
		if err := syncDir(parent); err != nil {
			return err
		}
		return os.RemoveAll(old)
	}
	if err := os.Rename(tmp, dir); err != nil {
		return err
	}
	return syncDir(parent)
}

// sweepTempDirs removes '.saving-<base>-*' siblings a crashed save left
// behind — each is a full orphaned image, tens of MB at scale.
func sweepTempDirs(parent, base string) {
	stale, _ := filepath.Glob(filepath.Join(parent, ".saving-"+base+"-*"))
	for _, d := range stale {
		os.RemoveAll(d)
	}
}

// syncTree fsyncs every file and directory under root (the tree is
// fully written when this runs, so directory entries are final).
func syncTree(root string) error {
	return filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	})
}

// syncDir fsyncs a directory so the renames inside it are durable.
func syncDir(path string) error {
	d, err := os.Open(path)
	if err != nil {
		return err
	}
	if err := d.Sync(); err != nil {
		d.Close()
		return err
	}
	return d.Close()
}

// RecoverDirSwap finishes an atomic swap a crash interrupted: if dir
// holds none of the marker files but dir.old holds one, the old image is
// moved back into place. Call before opening an image directory; pass
// every marker an image of that kind may carry (the current one and any
// a legacy format used).
func RecoverDirSwap(dir string, markers ...string) {
	if hasAny(dir, markers) || !hasAny(dir+oldDirSuffix, markers) {
		return
	}
	os.RemoveAll(dir)
	os.Rename(dir+oldDirSuffix, dir)
}

func hasAny(dir string, markers []string) bool {
	for _, m := range markers {
		if _, err := os.Stat(filepath.Join(dir, m)); err == nil {
			return true
		}
	}
	return false
}
