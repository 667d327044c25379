# Writes one hostile table CSV and runs `er_cli <file>` on it. Passes only
# when er_cli exits with the expected status: 0, or 2 with the "malformed
# table CSV" line on stderr. A signal (an abort or a crash) never passes.
# The ids_kept case also runs with --out and checks that the clusters file
# names the records by the file's ids.
#   cmake -DER_CLI=<path to er_cli> -DCASE=<name> -DEXPECT=0|2
#         -DOUT_DIR=<directory for the input> -P expect_csv_outcome.cmake
set(header "id,entity_id,name,city")
if(CASE STREQUAL "ragged_row")
  set(csv "${header}\n0,0,ann lee,boston\n1,1,bob ray\n")
elseif(CASE STREQUAL "unterminated_quote")
  set(csv "${header}\n0,0,\"ann lee,boston\n1,1,bob ray,austin\n")
elseif(CASE STREQUAL "entity_id_out_of_range")
  # 4294967296 = 2^32: cast to int it would wrap onto entity 0.
  string(CONCAT csv "${header}\n0,0,ann lee,boston\n"
                    "1,4294967296,ann lee,boston\n2,5,bob ray,austin\n")
elseif(CASE STREQUAL "ids_kept")
  # Ids that are not row positions, and records 10 and 20 the same.
  string(CONCAT csv "${header}\n10,0,ann lee,boston\n20,0,ann lee,boston\n"
                    "30,1,bob ray,austin\n")
  set(clusters_out "${OUT_DIR}/${CASE}_clusters.csv")
  set(want_names "10;20;30")
elseif(CASE STREQUAL "duplicate_id")
  # Clusters could not be joined back to a repeated id.
  string(CONCAT csv "${header}\n10,0,ann lee,boston\n10,0,ann lee,boston\n"
                    "30,1,bob ray,austin\n")
elseif(CASE STREQUAL "header_only")
  set(csv "${header}\n")
elseif(CASE STREQUAL "all_empty_values")
  set(csv "${header}\n0,0,,\n1,0,,\n2,1,,\n")
elseif(CASE STREQUAL "one_record")
  set(csv "${header}\n0,0,ann lee,boston\n")
elseif(CASE STREQUAL "attributes_70")
  set(csv "id,entity_id")
  foreach(k RANGE 1 70)
    string(APPEND csv ",a${k}")
  endforeach()
  string(APPEND csv "\n")
  foreach(r RANGE 0 5)
    math(EXPR entity "${r} / 2")
    string(APPEND csv "${r},${entity}")
    foreach(k RANGE 1 70)
      math(EXPR token "(${k} + ${entity}) % 9")
      string(APPEND csv ",tok${token} v${k}")
    endforeach()
    string(APPEND csv "\n")
  endforeach()
else()
  message(FATAL_ERROR "unknown CASE '${CASE}'")
endif()

set(input "${OUT_DIR}/${CASE}.csv")
file(WRITE "${input}" "${csv}")
set(args "${input}")
if(DEFINED clusters_out)
  file(REMOVE "${clusters_out}")
  list(APPEND args "--out=${clusters_out}")
endif()
execute_process(COMMAND "${ER_CLI}" ${args}
                RESULT_VARIABLE status
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT status STREQUAL "${EXPECT}")
  message(FATAL_ERROR "er_cli ${input}: expected exit ${EXPECT}, got "
                      "'${status}'\n${out}${err}")
endif()
if(EXPECT STREQUAL "2" AND NOT err MATCHES "malformed table CSV")
  message(FATAL_ERROR "er_cli ${input}: exit 2 without the malformed table "
                      "CSV line\n${out}${err}")
endif()
if(DEFINED clusters_out)
  # Every record_id of the clusters file, sorted.
  file(STRINGS "${clusters_out}" lines)
  set(names "")
  foreach(line IN LISTS lines)
    if(line STREQUAL "cluster_id,record_id")
      continue()
    endif()
    string(REGEX REPLACE "^[^,]*," "" name "${line}")
    list(APPEND names "${name}")
  endforeach()
  list(SORT names)
  if(NOT names STREQUAL want_names)
    message(FATAL_ERROR "er_cli ${input} --out: record ids '${names}', "
                        "expected '${want_names}'\n${out}${err}")
  endif()
endif()
