// Package orphanuser is a basilvet fixture for the BV009 orphan-package
// pass: it imports the internal fixture from a test file only, which
// must not count as an importer. Not an internal package itself, so
// clean even though nothing imports it.
package orphanuser
