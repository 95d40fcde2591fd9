# Symbol check for the kernel tier objects (src/tensor/tier_<name>.cpp,
# see src/tensor/kernel_tiers.h). Each is compiled with its own ISA flags,
# so it must not emit a weak, unique or COMDAT symbol: the linker may keep
# such a copy for every caller in the program, and an AVX-512 copy would
# fault on a host without AVX-512. Every global symbol a tier defines must
# also sit in its own namespace, pelta::ops::detail::<name>.
#
#   cmake -DNM=<nm> "-DOBJECTS=<obj>|<obj>|..." -P cmake/CheckTierSymbols.cmake
if(NOT NM OR NOT OBJECTS)
  message(FATAL_ERROR "pass -DNM=<nm> and -DOBJECTS=<'|'-separated object files>")
endif()

string(REPLACE "|" ";" objects "${OBJECTS}")
set(bad "")
set(checked 0)
foreach(obj ${objects})
  get_filename_component(file ${obj} NAME)
  if(NOT file MATCHES "^tier_([a-z0-9]+)\\.cpp\\.(o|obj)$")
    continue()
  endif()
  set(tier ${CMAKE_MATCH_1})
  math(EXPR checked "${checked} + 1")
  execute_process(COMMAND ${NM} -C --defined-only ${obj}
    OUTPUT_VARIABLE listing RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${NM} failed on ${obj}")
  endif()
  string(REPLACE ";" "," listing "${listing}")
  string(REPLACE "\n" ";" lines "${listing}")
  foreach(line ${lines})
    if(NOT line MATCHES "^[0-9a-fA-F]* *([A-Za-z]) (.*)$")
      continue()
    endif()
    set(type ${CMAKE_MATCH_1})
    set(name "${CMAKE_MATCH_2}")
    if(name MATCHES "^__odr_asan[.]" OR name MATCHES "^DW[.]ref[.]__gxx_personality_v0$")
      # Data a sanitizer build adds, never code: AddressSanitizer's one-byte
      # ODR indicator for the tier's table, and the exception-personality
      # pointer of the sanitizers' cleanup landing pads.
    elseif(type MATCHES "^[WwVvu]$")
      list(APPEND bad "  ${file}: weak/unique symbol (${type}) ${name}")
    elseif(type MATCHES "^[A-Z]$" AND NOT name MATCHES "^pelta::ops::detail::${tier}::")
      list(APPEND bad "  ${file}: global symbol outside pelta::ops::detail::${tier}: ${name}")
    endif()
  endforeach()
endforeach()

if(checked EQUAL 0)
  message(FATAL_ERROR "no tier_<name>.cpp objects among the given objects")
endif()
if(bad)
  list(JOIN bad "\n" pretty)
  message(FATAL_ERROR "kernel tier objects leak symbols:\n${pretty}")
endif()
message(STATUS "tier symbols OK: ${checked} tier object(s)")
