-- DML freshness of a bare-table skyline: after every INSERT / DELETE /
-- UPDATE the next PREFERRING query must show exactly the current rows'
-- maximal set — dominated and dominating inserts, deletes and updates of
-- members and non-members alike. Replayed under all harness
-- configurations.
CREATE TABLE camp (name TEXT, price INTEGER, weight INTEGER);
INSERT INTO camp VALUES
  ('tent', 300, 4),
  ('tarp', 120, 2),
  ('bivy', 180, 1),
  ('hammock', 150, 2);

-- A repeated query returns the same skyline.
SELECT name FROM camp PREFERRING LOWEST(price) AND LOWEST(weight)
  ORDER BY name;
SELECT name FROM camp PREFERRING LOWEST(price) AND LOWEST(weight)
  ORDER BY name;

-- A dominated insert leaves the skyline as it is.
INSERT INTO camp VALUES ('brick', 500, 9);
SELECT name FROM camp PREFERRING LOWEST(price) AND LOWEST(weight)
  ORDER BY name;

-- A dominating insert replaces the members it beats.
INSERT INTO camp VALUES ('quilt', 100, 1);
SELECT name FROM camp PREFERRING LOWEST(price) AND LOWEST(weight)
  ORDER BY name;

-- A batch insert mixing dominated and incomparable rows.
INSERT INTO camp VALUES ('anvil', 900, 20), ('foam', 60, 30);
SELECT name FROM camp PREFERRING LOWEST(price) AND LOWEST(weight)
  ORDER BY name;

-- Deleting non-members leaves the skyline as it is.
DELETE FROM camp WHERE name = 'brick' OR name = 'anvil';
SELECT name FROM camp PREFERRING LOWEST(price) AND LOWEST(weight)
  ORDER BY name;

-- Deleting a member: the rows it dominated must resurface.
DELETE FROM camp WHERE name = 'quilt';
SELECT name FROM camp PREFERRING LOWEST(price) AND LOWEST(weight)
  ORDER BY name;

-- Updating a non-member can promote it into the skyline.
UPDATE camp SET price = 90 WHERE name = 'hammock';
SELECT name FROM camp PREFERRING LOWEST(price) AND LOWEST(weight)
  ORDER BY name;

-- Updating a member; a repeat returns the same skyline.
UPDATE camp SET weight = 50 WHERE name = 'foam';
SELECT name FROM camp PREFERRING LOWEST(price) AND LOWEST(weight)
  ORDER BY name;
SELECT name FROM camp PREFERRING LOWEST(price) AND LOWEST(weight)
  ORDER BY name;

-- A different preference over the same table, around an update.
SELECT name FROM camp PREFERRING HIGHEST(price) ORDER BY name;
UPDATE camp SET price = 10 WHERE name = 'bivy';
SELECT name FROM camp PREFERRING HIGHEST(price) ORDER BY name;
SELECT name FROM camp PREFERRING LOWEST(price) AND LOWEST(weight)
  ORDER BY name;

-- Two more repeats: identical results.
SELECT name FROM camp PREFERRING LOWEST(price) AND LOWEST(weight)
  ORDER BY name;
SELECT name FROM camp PREFERRING LOWEST(price) AND LOWEST(weight)
  ORDER BY name;
