// Package errdrop exercises the error-drop rule: module-internal error
// results that never reach a check — discarded, blanked, assigned and never
// read, or overwritten before any read — whether or not the callee can
// actually fail.
package errdrop

import "errors"

// fallible is a module function that can really fail.
func fallible() error { return errors.New("boom") }

// pair returns a value and an error.
func pair() (int, error) { return 0, errors.New("boom") }

// neverFails cannot return a non-nil error, yet declares one.
func neverFails() error { return nil }

// wraps forwards neverFails' error.
func wraps() error { return neverFails() }

// FloorDrop discards the result as an expression statement.
func FloorDrop() {
	fallible() // want `error result of .*fallible discarded`
}

// Blanked hides the error in the blank identifier, in both assignment
// shapes.
func Blanked() int {
	_ = fallible() // want `error result of .*fallible assigned to the blank identifier`
	v, _ := pair() // want `error result of .*pair assigned to the blank identifier`
	return v
}

// NeverRead binds the error but no path ever looks at it: `_ = err` only
// launders the compiler's unused check, it is not a check.
func NeverRead() int {
	n, err := pair() // want `error from .*pair assigned to "err" but never checked`
	_ = err
	return n
}

// Overwritten checks only the second error; the first is clobbered in the
// same statement sequence with no read in between.
func Overwritten() error {
	err := fallible() // want `error from .*fallible overwritten before any check`
	err = fallible()
	return err
}

// Checked is the canonical correct shape.
func Checked() error {
	if err := fallible(); err != nil {
		return err
	}
	n, err := pair()
	if err != nil {
		return err
	}
	_ = n
	return nil
}

// AlwaysNilExempt drops results that cannot be non-nil. Each drop is
// reported, the wrapper's included: an error result that is always nil is
// deleted, not ignored.
func AlwaysNilExempt() {
	neverFails()     // want `error result of .*neverFails discarded`
	wraps()          // want `error result of .*wraps discarded`
	_ = neverFails() // want `error result of .*neverFails assigned to the blank identifier`
}

// BranchWrites assigns in sibling branches: neither overwrite is
// sequential, so shape 3 stays quiet, and the final read covers shape 2.
func BranchWrites(flip bool) error {
	var err error
	if flip {
		err = fallible()
	} else {
		err = fallible()
	}
	return err
}

// ClosureRead counts a read inside a deferred closure as a check.
func ClosureRead() {
	err := fallible()
	defer func() {
		if err != nil {
			panic(err)
		}
	}()
}
