//go:build !(linux && amd64 && !amd64.v2)

package hypar_test

// pinnedTarget reports that the build matches the target the identity
// digests were recorded on (linux/amd64, GOAMD64=v1); this one may not.
const pinnedTarget = false
