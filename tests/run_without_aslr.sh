#!/bin/sh
# Runs a test binary with address-space randomization turned off for that
# process only, so that `gtest_discover_tests` sees the same test names on
# every build. Value-parameterized suites print their parameter as raw bytes
# in the test name, and struct padding in those bytes holds leftover stack
# addresses; under ASLR those change from build to build. Where the
# personality call is not permitted the binary runs unchanged.
if setarch "$(uname -m)" -R true >/dev/null 2>&1; then
  exec setarch "$(uname -m)" -R "$@"
fi
exec "$@"
