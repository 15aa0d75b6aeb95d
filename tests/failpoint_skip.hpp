// SKIP_WITHOUT_FAILPOINTS() for fault-injection tests. Release builds compile
// fail points out by default (the SHAREDRES_FAILPOINTS option), so fp::arm
// never fires there and such a test would fail vacuously; it skips instead.
// Every other build type runs it.
#pragma once

#include <gtest/gtest.h>

#include "util/failpoint.hpp"

#define SKIP_WITHOUT_FAILPOINTS()                                   \
  do {                                                              \
    if (!::sharedres::util::failpoint::compiled_in()) {             \
      GTEST_SKIP() << "fail points compiled out of this build";     \
    }                                                               \
  } while (0)
