//go:build !crashmutate

package core

// The deliberate commit-protocol bug (see mutate_on.go) is compile-time
// false in normal builds, so its branch in planGroup vanishes.
func mutateInsertBit() bool { return false }
