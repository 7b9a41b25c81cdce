package resultstore

// The filesystem seam. Disk and Merge never touch the os package directly:
// every open, create, read, write, sync, rename, remove and readdir goes
// through an FS, so the fault-injection layer (FaultFS) can interpose a
// deterministic schedule of errors, short writes and crash cut-offs on the
// exact operations a real run performs — and the crash-consistency harness
// can prove the store's recovery guarantees against every one of them.
//
// The real implementation (OS) is a zero-state passthrough; the interface
// is deliberately the narrow waist of what the store needs, not a general
// VFS.

import (
	"errors"
	"io"
	"os"
	"syscall"
)

// File is the writable handle an FS hands out: the append-side surface of
// a segment file. Reads go through FS.ReadFile — the store never seeks.
type File interface {
	io.Writer
	// Sync flushes the file to stable storage — the durability boundary.
	Sync() error
	Close() error
}

// FS is the filesystem the store runs on. Implementations must be safe for
// concurrent use; the store serializes writes to any single File itself.
type FS interface {
	// OpenFile opens (or, with os.O_CREATE|os.O_EXCL, creates) a file for
	// writing.
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	// ReadFile returns a file's full contents.
	ReadFile(name string) ([]byte, error)
	// ReadDir lists a directory.
	ReadDir(name string) ([]os.DirEntry, error)
	// MkdirAll creates a directory path.
	MkdirAll(name string, perm os.FileMode) error
	// Rename atomically replaces newpath with oldpath.
	Rename(oldpath, newpath string) error
	// Remove deletes a file.
	Remove(name string) error
}

// osFS is the real filesystem.
type osFS struct{}

// OS returns the real-filesystem FS — the default for Open and Merge.
func OS() FS { return osFS{} }

func (osFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		// Return a nil File interface, not a typed-nil *os.File inside it.
		return nil, err
	}
	return f, nil
}

func (osFS) ReadFile(name string) ([]byte, error)         { return os.ReadFile(name) }
func (osFS) ReadDir(name string) ([]os.DirEntry, error)   { return os.ReadDir(name) }
func (osFS) MkdirAll(name string, perm os.FileMode) error { return os.MkdirAll(name, perm) }
func (osFS) Rename(oldpath, newpath string) error         { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error                     { return os.Remove(name) }

// ErrTransient marks an error as retryable: wrapping it (or matching one of
// the retryable syscall errnos below) tells the store's bounded-backoff
// retry loop the operation may succeed if repeated. Anything else is
// treated as persistent and degrades the store instead of spinning on it.
var ErrTransient = errors.New("transient I/O error")

// transientErr reports whether err is worth retrying: explicitly-marked
// transient errors (FaultFS schedules, callers wrapping ErrTransient),
// short writes, and the syscall errnos that mean "try again" rather than
// "this will never work".
func transientErr(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, ErrTransient) || errors.Is(err, io.ErrShortWrite) {
		return true
	}
	for _, errno := range []syscall.Errno{syscall.EINTR, syscall.EAGAIN, syscall.EBUSY} {
		if errors.Is(err, errno) {
			return true
		}
	}
	return false
}
