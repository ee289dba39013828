// Package internal is a basilvet fixture for the BV009 orphan-package
// pass: an internal package whose only importer is a test file.
package internal // want BV009

// Used is referenced only from orphanuser's test.
func Used() int { return 1 }
